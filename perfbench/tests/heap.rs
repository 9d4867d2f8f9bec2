//! The live-heap counter, in a test binary of its own so that no other
//! test allocates while it counts.

use sg_perfbench::heap::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: usize = 1024 * 1024;

#[test]
fn measure_counts_the_peak_held_at_once_and_nothing_outside() {
    let kept = vec![1u8; 64 * MIB];
    let ((), peak) = measure(|| {
        let a = vec![1u8; 8 * MIB];
        let b = vec![2u8; 4 * MIB];
        drop((a, b));
        let mut c: Vec<u8> = Vec::with_capacity(MIB);
        c.resize(2 * MIB, 3);
    });
    assert!((12.0..12.5).contains(&peak), "peak {peak} MiB");
    let ((), again) = measure(|| drop(vec![0u8; MIB]));
    assert!((1.0..1.5).contains(&again), "peak {again} MiB");
    drop(kept);
}
