//! The paper's §5 text-search application (topology of Figures 8–9).
//!
//! A file-reader kernel distributes the corpus zero-copy to N replicated
//! match kernels; per-chunk hit counts flow through a fused tail (count,
//! drop zeroes) to the collector. Both search algorithms of the paper are
//! available, plus runtime algorithm hot-swap (§4.2's "synonymous kernel
//! groupings"). The fusion pass collapses the stateless tail stages into
//! one batch-executed kernel — the fused layout is printed from the
//! execution report, and `--unfused` A/Bs the unfused graph.
//!
//! ```sh
//! cargo run --release --example text_search -- [ac|bmh] [corpus-mb] [width] [--unfused]
//! ```

use std::sync::Arc;
use std::time::Instant;

use raft_algos::corpus::{generate, CorpusSpec};
use raft_algos::{AhoCorasick, Horspool, Match, Matcher};
use raft_kernels::{write_each, ByteChunk, ByteChunkSource, FilterMap, Map};
use raftlib::prelude::*;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let unfused = args.iter().any(|a| a == "--unfused");
    args.retain(|a| a != "--unfused");
    let algo = args.get(1).map(String::as_str).unwrap_or("bmh");
    let corpus_mb: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let width: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);

    // --- corpus (substitute for the paper's 30 GB RAM-disk dump) ---------
    // The spec (default seed included) fixes the bytes and the planted
    // match count on every machine: the generator is in-tree.
    eprintln!("generating {corpus_mb} MB corpus ...");
    let spec = CorpusSpec {
        size: corpus_mb << 20,
        matches_per_mb: 25.0,
        ..Default::default()
    };
    let corpus = generate(&spec);
    let expected = corpus.planted.len();
    let needle = corpus.needle.clone();
    let data = Arc::new(corpus.data);
    eprintln!(
        "corpus: {} bytes, needle {:?}, {} planted matches",
        data.len(),
        String::from_utf8_lossy(&needle),
        expected
    );

    // --- matcher selection (the paper's template parameter) ---------------
    let matcher: Arc<dyn Matcher> = match algo {
        "ac" => Arc::new(AhoCorasick::new(&[&needle])),
        "bmh" => Arc::new(Horspool::new(&needle)),
        other => {
            eprintln!("unknown algorithm {other:?}; use ac or bmh");
            std::process::exit(2);
        }
    };

    // --- Figure 9's topology ----------------------------------------------
    let overlap = matcher.overlap();
    let mut map = RaftMap::new();
    map.config_mut().fusion.enabled = !unfused;
    let filereader = map.add(ByteChunkSource::new(data, 1 << 20, overlap));
    let m = matcher.clone();
    let search = map.add(Map::new(move |chunk: ByteChunk| {
        let mut found: Vec<Match> = Vec::new();
        m.find_into(chunk.as_slice(), chunk.base(), chunk.min_end, &mut found);
        found
    }));
    // Fusable tail: count hits per chunk, drop chunks with none. Both are
    // stateless one-in/one-out stages, so they run as one fused kernel.
    let tally = map.add(Map::new(|found: Vec<Match>| found.len() as u64));
    let nonzero = map.add(FilterMap::new(|n: u64| (n > 0).then_some(n)));
    let (we, hits) = write_each::<u64>();
    let collect = map.add(we);

    // Unordered links mark the streams replication-safe (§4.1).
    map.link_unordered(filereader, "out", search, "in")
        .expect("link search");
    map.link_unordered(search, "out", tally, "in")
        .expect("link tally");
    map.link_unordered(tally, "out", nonzero, "in")
        .expect("link nonzero");
    map.link_unordered(nonzero, "out", collect, "in")
        .expect("link collect");
    map.prefer_width(search, width);

    let t0 = Instant::now();
    let report = map.exe().expect("execution");
    let dt = t0.elapsed();

    let total_hits: usize = hits.lock().unwrap().iter().sum::<u64>() as usize;
    let gb = (corpus_mb as f64) / 1024.0;
    println!(
        "algorithm={algo} width={width} corpus={corpus_mb}MB matches={total_hits} \
         (expected {expected}) time={dt:?} throughput={:.3} GB/s",
        gb / dt.as_secs_f64()
    );
    assert_eq!(total_hits, expected, "match count mismatch!");
    eprintln!(
        "replicated: {:?}; total stream items: {}",
        report.replicated,
        report.total_items()
    );
    if report.fused.is_empty() {
        eprintln!("fused groups: none (--unfused, or no eligible chain)");
    } else {
        for g in &report.fused {
            eprintln!(
                "fused: {} ({} batches of <= {} items, {} -> {} items)",
                g.members.join(" -> "),
                g.batches,
                g.batch,
                g.items_in,
                g.items_out
            );
        }
    }
}
