//! `text_search`: the paper's Figure 8–10 application.
//! `ByteChunkSource(corpus, 1 MiB chunks) → SliceMap(Horspool) × nproc →
//! Fold(count)` over unordered links, executed `PASSES` times back to back.
//! Compute-bound in `raft-algos`; the runtime should be invisible
//! (`throughput ≈ width × algos.horspool_mb_s`), so fabric and scheduler
//! optimisations predict **no change** here, while split/reduce and
//! `exe()` set-up regressions (paid once per pass) do show.

use std::sync::Arc;
use std::time::Instant;

use super::{note_check_errors, phase, scaled, RefCache, RepOutcome, Size, TraceCtx, Workload};
use crate::sut::{
    generate_corpus, ByteChunk, ByteChunkSource, CorpusSpec, Fold, Horspool, MapConfig, Match,
    Matcher, RaftMap, SliceMap,
};

/// Corpus size in bytes (frozen): far larger than any cache level.
pub const CORPUS_BYTES: usize = 128 << 20;
/// The corpus is this many bytes of generated text, tiled (frozen). Text
/// statistics, which set the searcher's skip distance, are those of the
/// tile; generating all 128 MiB word by word would cost seconds of set-up.
pub const TILE_BYTES: usize = 4 << 20;
/// Bytes per chunk descriptor (frozen).
pub const CHUNK_BYTES: usize = 1 << 20;
/// Chunk descriptors per `SliceMap` batch (frozen).
pub const SEARCH_BATCH: usize = 8;
/// `exe()` calls per repetition (frozen).
pub const PASSES: u64 = 3;
/// Planted needles per MB of text (frozen).
pub const MATCHES_PER_MB: f64 = 20.0;

pub struct TextSearch {
    corpus: Arc<Vec<u8>>,
    /// The first chunk alone: the set-up measurement's one unit of work.
    first_chunk: Arc<Vec<u8>>,
    needle: Vec<u8>,
    passes: u64,
    width: u32,
    /// Matches in a corpus of a given length, by length.
    references: RefCache<u64>,
}

/// Count matches with one thread and no runtime.
pub fn count_inline(matcher: &Horspool, hay: &[u8]) -> u64 {
    let mut found: Vec<Match> = Vec::new();
    matcher.find_into(hay, 0, 0, &mut found);
    found.len() as u64
}

/// `bytes` of text: a seeded tile of `tile_bytes`, repeated. Returns the
/// text and the needle planted in it. The needle holds a digit and the
/// vocabulary is lowercase, so a tile boundary cannot create an occurrence
/// that was not planted.
pub fn tiled_corpus(seed: u64, tile_bytes: usize, bytes: usize) -> (Vec<u8>, Vec<u8>) {
    let tile = generate_corpus(&CorpusSpec {
        size: tile_bytes.min(bytes),
        matches_per_mb: MATCHES_PER_MB,
        seed,
        ..CorpusSpec::default()
    });
    let mut corpus = Vec::with_capacity(bytes + tile.data.len());
    while corpus.len() < bytes {
        corpus.extend_from_slice(&tile.data);
    }
    corpus.truncate(bytes);
    (corpus, tile.needle)
}

impl TextSearch {
    pub fn new(seed: u64, scale: f64, width: u32) -> Self {
        let bytes = scaled(CORPUS_BYTES as u64, scale) as usize;
        let (corpus, needle) = tiled_corpus(seed, TILE_BYTES, bytes);
        let first_chunk = corpus[..CHUNK_BYTES.min(corpus.len())].to_vec();
        TextSearch {
            corpus: Arc::new(corpus),
            first_chunk: Arc::new(first_chunk),
            needle,
            passes: PASSES,
            width,
            references: RefCache::default(),
        }
    }

    /// The corpus and number of passes a repetition of `size` searches.
    fn job(&self, size: Size) -> (Arc<Vec<u8>>, u64) {
        match size {
            Size::Full => (self.corpus.clone(), self.passes),
            Size::Warmup => (self.corpus.clone(), (self.passes / 8).max(1)),
            Size::Minimal => (self.first_chunk.clone(), 1),
            Size::Empty => (Arc::new(Vec::new()), 1),
        }
    }

    /// One pass: build, check, execute. Returns the match count.
    fn pass(&self, corpus: &Arc<Vec<u8>>, trace: Option<&TraceCtx>, out: &mut RepOutcome) -> u64 {
        let matcher = Arc::new(Horspool::new(&self.needle));
        let overlap = matcher.overlap();
        let ((map, total), build) = phase(trace, "setup.build_map", || {
            let mut map = RaftMap::with_config(MapConfig::default());
            let reader = map.add(ByteChunkSource::new(corpus.clone(), CHUNK_BYTES, overlap));
            let search = map.add(
                SliceMap::new(move |chunk: &ByteChunk| {
                    let mut found: Vec<Match> = Vec::new();
                    matcher.find_into(chunk.as_slice(), chunk.base(), chunk.min_end, &mut found);
                    found.len() as u64
                })
                .with_batch(SEARCH_BATCH),
            );
            let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc += v);
            let sink = map.add(fold);
            map.link_unordered(reader, "out", search, "in")
                .expect("link search");
            map.link_unordered(search, "out", sink, "in")
                .expect("link fold");
            map.prefer_width(search, self.width);
            (map, total)
        });
        out.build += build;
        out.check += phase(trace, "core.map.check", || {
            note_check_errors(&map, &mut out.violations);
        })
        .1;
        let report = match trace {
            Some(t) => t.tracer.span(t.root, "core.map.exe", |id| {
                out.exe_spans.push(id);
                map.exe()
            }),
            None => map.exe(),
        }
        .expect("text_search exe");
        if self.width > 1 && report.replicated.is_empty() {
            out.violations
                .push("search kernel was not replicated".to_string());
        }
        out.reports.push(report);
        let n = *total.lock().expect("fold handle");
        n
    }
}

impl Workload for TextSearch {
    fn unit(&self) -> &'static str {
        "MB"
    }

    fn run(&mut self, size: Size, trace: Option<&TraceCtx>) -> RepOutcome {
        let (corpus, passes) = self.job(size);
        let chunks = corpus.len().div_ceil(CHUNK_BYTES) as u64;
        let mut out = RepOutcome {
            attempted: chunks * passes,
            units: (corpus.len() as u64 * passes) as f64 / 1e6,
            ..Default::default()
        };
        let mut counts = Vec::with_capacity(passes as usize);
        let t0 = Instant::now();
        for _ in 0..passes {
            counts.push(self.pass(&corpus, trace, &mut out));
        }
        out.wall = t0.elapsed();

        let needle = self.needle.clone();
        let want = self.references.get_or(corpus.len() as u64, || {
            count_inline(&Horspool::new(&needle), &corpus)
        });
        // a chunk with a wrong count is a failed element; the count
        // difference bounds how many chunks were wrong from below
        out.failed = counts
            .iter()
            .map(|&got| got.abs_diff(want).min(chunks.max(1)))
            .sum();
        out
    }

    fn reference_throughput(&mut self) -> f64 {
        let matcher = Horspool::new(&self.needle);
        let t0 = Instant::now();
        std::hint::black_box(count_inline(&matcher, &self.corpus));
        self.corpus.len() as f64 / 1e6 / t0.elapsed().as_secs_f64()
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("text_search.corpus_bytes", self.corpus.len() as f64),
            ("text_search.tile_bytes", TILE_BYTES as f64),
            ("text_search.chunk_bytes", CHUNK_BYTES as f64),
            ("text_search.search_batch", SEARCH_BATCH as f64),
            ("text_search.passes", self.passes as f64),
            ("text_search.width", f64::from(self.width)),
        ]
    }
}
