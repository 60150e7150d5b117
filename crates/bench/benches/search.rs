//! Raw single-core service rates of the four search algorithms (GB/s) —
//! the inputs to Figure 10's flow model, measured in isolation from any
//! pipeline machinery.

use raft_algos::corpus::{generate, CorpusSpec};
use raft_algos::{AhoCorasick, BoyerMoore, Horspool, Matcher, MemMem};
use raft_bench::measure::{bench, Throughput};

const MB: usize = 8;

fn main() {
    let corpus = generate(&CorpusSpec {
        size: MB << 20,
        matches_per_mb: 10.0,
        ..Default::default()
    });
    let expected = corpus.planted.len();
    let hay = corpus.data;
    let needle = corpus.needle.clone();

    let bytes = Some(Throughput::Bytes(hay.len() as u64));
    let matchers: Vec<(&str, Box<dyn Matcher>)> = vec![
        ("aho_corasick", Box::new(AhoCorasick::new(&[&needle]))),
        ("boyer_moore", Box::new(BoyerMoore::new(&needle))),
        ("horspool", Box::new(Horspool::new(&needle))),
        ("memmem_grep_class", Box::new(MemMem::new(&needle))),
    ];
    for (name, m) in matchers {
        bench(&format!("search_algorithms/{name}"), bytes, || {
            assert_eq!(m.count(&hay), expected);
        });
    }

    // Automaton construction cost (AC pays it, the shift tables are ~free).
    let patterns: Vec<String> = (0..100).map(|i| format!("pattern{i:04}")).collect();
    bench(
        "matcher_construction/aho_corasick_100_patterns",
        None,
        || AhoCorasick::new(&patterns),
    );
    bench("matcher_construction/horspool", None, || {
        Horspool::new(&needle)
    });
}
