//! The packed inference product is counted in the `tensor.matmul.*` kernel
//! metrics, like `Tensor::matmul`.
//!
//! This is a test binary of its own: the counters are process-wide, so no
//! other test may run a matmul between the two reads of a delta.

use valuenet_tensor::packed::PackedMatrix;
use valuenet_tensor::simd;
use valuenet_tensor::Tensor;

fn counter(name: &str) -> u64 {
    valuenet_obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn packed_matmul_counts_its_flops() {
    let (n, k, m) = (3, 5, 11);
    let a = Tensor::from_vec(n, k, (0..n * k).map(|i| i as f32 * 0.25 - 1.0).collect());
    let w: Vec<f32> = (0..k * m).map(|i| (i % 7) as f32 - 3.0).collect();
    let packed = PackedMatrix::pack(&w, k, m);
    let flops = 2 * (n * k * m) as u64;
    valuenet_obs::set_enabled(true);

    let (f0, c0) = (counter("tensor.matmul.flops"), counter("tensor.matmul.calls"));
    drop(packed.matmul(&a));
    assert_eq!(counter("tensor.matmul.flops") - f0, flops);
    assert_eq!(counter("tensor.matmul.calls") - c0, 1);

    // The explicit-level variant that tests and benches call stays uncounted.
    let f1 = counter("tensor.matmul.flops");
    drop(packed.matmul_at(simd::level(), &a));
    assert_eq!(counter("tensor.matmul.flops"), f1);
}
