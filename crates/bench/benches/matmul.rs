//! Matrix-multiply kernel: blocked vs naive (the Figure 4 workload's
//! compute core), plus the streamed pipeline cost around it.

use raft_algos::matmul::{multiply_blocked, multiply_naive, Matrix};
use raft_bench::measure::{bench, Throughput};
use raft_bench::pipelines::matmul_pipeline;

fn main() {
    let n = 128usize;
    let a = Matrix::random(n, 1);
    let b = Matrix::random(n, 2);
    let flops = Some(Throughput::Elements((2 * n * n * n) as u64));

    bench(&format!("matmul_kernel/naive/{n}"), flops, || {
        multiply_naive(&a, &b)
    });
    for block in [16usize, 64] {
        bench(&format!("matmul_kernel/blocked/{block}"), flops, || {
            multiply_blocked(&a, &b, block)
        });
    }
    bench("matmul_pipeline/streamed_16x_96", None, || {
        matmul_pipeline(16, 96, 8)
    });
}
