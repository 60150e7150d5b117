//! `rgrep` — a small real-world grep built on the raftlib-rs text-search
//! pipeline (the application §5 benchmarks, usable on your own files).
//!
//! Reads a file (or generates a demo corpus when no path is given),
//! searches it with the Figure 8 topology — zero-copy chunk source,
//! replicated match kernels, a fused post-processing tail, merge — and
//! prints `offset:line` for each hit.
//!
//! The stages after the scan (extract offsets, drop empty chunks) are
//! stateless one-in/one-out transforms, so the fusion pass collapses them
//! into one batch-executed kernel; the fused layout is printed from the
//! execution report. `--unfused` runs the same graph unfused for A/B.
//!
//! ```sh
//! cargo run --release --example rgrep -- <pattern> [path] [--algo ac|bmh|rk|mm] [--width N] [--unfused]
//! ```

use std::sync::Arc;
use std::time::Instant;

use raft_algos::{AhoCorasick, Horspool, Match, Matcher, MemMem, RabinKarp};
use raft_kernels::{write_each, ByteChunk, ByteChunkSource, FilterMap, Map};
use raftlib::prelude::*;

struct Args {
    pattern: String,
    path: Option<String>,
    algo: String,
    width: u32,
    unfused: bool,
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1);
    let pattern = args.next()?;
    let mut parsed = Args {
        pattern,
        path: None,
        algo: "bmh".to_string(),
        width: 2,
        unfused: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--algo" => parsed.algo = args.next()?,
            "--width" => parsed.width = args.next()?.parse().ok()?,
            "--unfused" => parsed.unfused = true,
            p => parsed.path = Some(p.to_string()),
        }
    }
    Some(parsed)
}

fn main() {
    let Some(args) = parse_args() else {
        eprintln!("usage: rgrep <pattern> [path] [--algo ac|bmh|rk|mm] [--width N] [--unfused]");
        std::process::exit(2);
    };

    let data: Arc<Vec<u8>> = match &args.path {
        Some(p) => Arc::new(std::fs::read(p).unwrap_or_else(|e| {
            eprintln!("rgrep: {p}: {e}");
            std::process::exit(1);
        })),
        None => {
            // Same spec, same bytes, on every machine (in-tree generator).
            eprintln!("no file given; searching a generated demo corpus");
            let c = raft_algos::corpus::generate(&raft_algos::corpus::CorpusSpec {
                size: 4 << 20,
                needle: args.pattern.clone().into_bytes(),
                matches_per_mb: 5.0,
                ..Default::default()
            });
            Arc::new(c.data)
        }
    };

    let matcher: Arc<dyn Matcher> = match args.algo.as_str() {
        "ac" => Arc::new(AhoCorasick::new(&[args.pattern.as_bytes()])),
        "bmh" => Arc::new(Horspool::new(&args.pattern)),
        "rk" => Arc::new(RabinKarp::new(&[args.pattern.as_bytes()])),
        // SIMD rare-byte scanner (AVX2/SSE2/scalar picked at runtime)
        "mm" => Arc::new(MemMem::new(&args.pattern)),
        other => {
            eprintln!("rgrep: unknown algorithm {other:?}");
            std::process::exit(2);
        }
    };

    // Figure 8 topology, with a fusable post-processing tail.
    let overlap = matcher.overlap();
    let mut map = RaftMap::new();
    map.config_mut().fusion.enabled = !args.unfused;
    let reader = map.add(ByteChunkSource::new(data.clone(), 1 << 20, overlap));
    let m = matcher.clone();
    let search = map.add(Map::new(move |chunk: ByteChunk| {
        let mut found: Vec<Match> = Vec::new();
        m.find_into(chunk.as_slice(), chunk.base(), chunk.min_end, &mut found);
        found
    }));
    // These two stages fuse: stateless, one-in/one-out, no width hint.
    let extract = map.add(Map::new(|found: Vec<Match>| {
        found.iter().map(|m| m.offset).collect::<Vec<u64>>()
    }));
    let busy = map.add(FilterMap::new(|offs: Vec<u64>| {
        (!offs.is_empty()).then_some(offs)
    }));
    let (we, hits) = write_each::<Vec<u64>>();
    let merge = map.add(we);
    map.link_unordered(reader, "out", search, "in")
        .expect("link");
    map.link_unordered(search, "out", extract, "in")
        .expect("link");
    map.link_unordered(extract, "out", busy, "in")
        .expect("link");
    map.link_unordered(busy, "out", merge, "in").expect("link");
    map.prefer_width(search, args.width);

    let t0 = Instant::now();
    let report = map.exe().expect("search run");
    let dt = t0.elapsed();

    let mut offsets: Vec<u64> = hits.lock().unwrap().iter().flatten().copied().collect();
    offsets.sort_unstable();

    // Resolve line numbers with one pass over the file.
    let mut line_starts = vec![0usize];
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    for &off in offsets.iter().take(20) {
        let line_idx = line_starts.partition_point(|&s| s as u64 <= off) - 1;
        let line_start = line_starts[line_idx];
        let line_end = data[line_start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| line_start + p)
            .unwrap_or(data.len());
        let text = String::from_utf8_lossy(&data[line_start..line_end]);
        let shown = if text.len() > 100 {
            &text[..100]
        } else {
            &text
        };
        println!("{}:{}: {}", line_idx + 1, off, shown);
    }
    if offsets.len() > 20 {
        println!("... and {} more", offsets.len() - 20);
    }
    eprintln!(
        "\n{} matches in {} bytes, {:?} ({:.2} GB/s, algo={}, width={}, simd={})",
        offsets.len(),
        data.len(),
        dt,
        data.len() as f64 / 1e9 / dt.as_secs_f64(),
        args.algo,
        args.width,
        raft_algos::simd::active_tier().name()
    );
    if report.fused.is_empty() {
        eprintln!("fused groups: none (--unfused, or no eligible chain)");
    } else {
        for g in &report.fused {
            eprintln!(
                "fused: {} ({} batches of <= {} items)",
                g.members.join(" -> "),
                g.batches,
                g.batch
            );
        }
    }
}
