//! LZ link-compression codec throughput and ratio (§4.2 future work):
//! compress/decompress MB/s on the synthetic text corpus and on random
//! bytes, plus the frame wrapper's raw-fallback overhead.

use raft_algos::corpus::{generate, CorpusSpec};
use raft_bench::measure::{bench, Throughput};
use raft_net::compress::{compress, compress_frame, decompress};

fn main() {
    let text = generate(&CorpusSpec {
        size: 1 << 20,
        ..Default::default()
    })
    .data;
    let mut rng = raft_rng::Rng::new(9);
    let random: Vec<u8> = (0..1 << 20).map(|_| rng.range(0..=u8::MAX)).collect();

    let lz_text = compress(&text);
    eprintln!(
        "corpus compression ratio: {:.2}x ({} -> {} bytes)",
        text.len() as f64 / lz_text.len() as f64,
        text.len(),
        lz_text.len()
    );

    let bytes = Some(Throughput::Bytes(text.len() as u64));
    bench("lz_codec/compress_text_1mb", bytes, || compress(&text));
    bench("lz_codec/compress_random_1mb", bytes, || compress(&random));
    bench("lz_codec/decompress_text_1mb", bytes, || {
        decompress(&lz_text, text.len()).unwrap()
    });
    bench("lz_codec/frame_wrapper_random_fallback", bytes, || {
        compress_frame(&random)
    });
}
