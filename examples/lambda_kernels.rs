//! Lambda kernels (§4.2, Figure 7): full kernels from closures.
//!
//! The paper's Figure 7 builds a random-number source as a lambda kernel
//! feeding a print kernel. This example reproduces that and goes one step
//! further: a lambda *map* stage that is `Clone`, so the auto-parallelizer
//! can replicate it.
//!
//! ```sh
//! cargo run --example lambda_kernels
//! ```

use raft_kernels::{write_each, Print};
use raft_rng::Rng;
use raftlib::prelude::*;

fn main() {
    // --- Figure 7: lambda random-number source -> print -------------------
    let mut rng = Rng::new(0xF16);
    let mut remaining = 5u32;
    let mut map = RaftMap::new();
    let source = map.add(lambda_source(move || {
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        Some(rng.range(0..=u32::MAX))
    }));
    let print = map.add(Print::<u32>::new('\n'));
    map.link(source, "0", print, "in").expect("link");
    println!("five random numbers via a lambda kernel:");
    map.exe().expect("execution");

    // --- a replicable lambda map stage -------------------------------------
    let mut map = RaftMap::new();
    let mut n = 0u64;
    let source = map.add(lambda_source(move || {
        n += 1;
        (n <= 100_000).then_some(n)
    }));
    // `lambda_map` closures that are Clone make the kernel replicable.
    let stage = map.add(lambda_map(|x: u64| x.wrapping_mul(2654435761) >> 7));
    let (we, out) = write_each::<u64>();
    let sink = map.add(we);
    map.link_unordered(source, "0", stage, "0").expect("link");
    map.link_unordered(stage, "0", sink, "in").expect("link");
    map.prefer_width(stage, 3);
    let report = map.exe().expect("execution");
    println!(
        "\nlambda map stage processed {} items across {:?} replicas in {:?}",
        out.lock().unwrap().len(),
        report.replicated,
        report.elapsed
    );

    // --- the general form: explicit ports, raw Context ---------------------
    let mut map = RaftMap::new();
    let src_a = map.add(lambda_source({
        let mut i = 0i64;
        move || {
            i += 1;
            (i <= 3).then_some(i)
        }
    }));
    let src_b = map.add(lambda_source({
        let mut i = 0i64;
        move || {
            i += 1;
            (i <= 3).then_some(i * 1000)
        }
    }));
    // Two inputs, one output — the lambda analog of the sum kernel.
    let sum = map.add(LambdaKernel::new(
        || {
            PortSpec::new()
                .input::<i64>("0")
                .input::<i64>("1")
                .output::<i64>("0")
        },
        |ctx: &Context| {
            let mut a = ctx.input::<i64>("0");
            let mut b = ctx.input::<i64>("1");
            match (a.pop(), b.pop()) {
                (Ok(x), Ok(y)) => {
                    drop((a, b));
                    let mut out = ctx.output::<i64>("0");
                    if out.push(x + y).is_err() {
                        return KStatus::Stop;
                    }
                    KStatus::Proceed
                }
                _ => KStatus::Stop,
            }
        },
    ));
    let print = map.add(Print::<i64>::new('\n'));
    map.link(src_a, "0", sum, "0").expect("link");
    map.link(src_b, "0", sum, "1").expect("link");
    map.link(sum, "0", print, "in").expect("link");
    println!("\nlambda sum kernel (general form):");
    map.exe().expect("execution");
}
