//! Host-speed reference. The host this benchmark runs on moves between
//! speeds in stretches of seconds to minutes, and the workloads slow
//! down by up to 1.9x in its slow stretches. A fixed slice of ordered
//! map, hash map, heap and sort work, timed between the cells, slows down
//! with them; a pure ALU loop and pointer chases over 256 KiB to 32 MiB
//! do not (see `README.md`, Measured noise). The timed metrics divide
//! each cell's time by its pass's mean slice time and multiply by
//! [`NOMINAL_SLICE_MS`], which states them at one fixed host speed.
//!
//! The slice is part of the benchmark's yardstick: changing its work,
//! or [`NOMINAL_SLICE_MS`], changes the scale of every timed metric.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Operations in one slice.
const SLICE_OPS: u64 = 4000;
/// Slice time, ms, at the host speed the timed metrics are stated at:
/// about the median slice time on a 2-vCPU KVM guest (Intel Xeon,
/// 2.1 GHz).
pub const NOMINAL_SLICE_MS: f64 = 0.6;

/// Run one slice and return its time, ms.
pub fn slice_ms() -> f64 {
    let t0 = Instant::now();
    black_box(slice_work(black_box(SLICE_OPS)));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The slice's work: the same keys and operations every time, on maps
/// with a fixed hasher, so every slice does identical work.
fn slice_work(ops: u64) -> u64 {
    let mut s = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..ops {
        let k = next() % 4096;
        match next() % 6 {
            0 => {
                ordered.insert(k, i);
            }
            1 => acc += ordered.remove(&k).unwrap_or(0),
            2 => *hashed.entry(k).or_insert(0) += 1,
            3 => {
                heap.push((k, i));
                if heap.len() > 512 {
                    acc += heap.pop().map_or(0, |(k, _)| k);
                }
            }
            4 => acc += ordered.range(k..).next().map_or(0, |(k, _)| *k),
            _ => {
                let mut v: Vec<u64> = (0..16).map(|_| next() % 100).collect();
                v.sort_unstable();
                acc += v[8];
            }
        }
    }
    acc + hashed.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slice_does_the_same_work() {
        assert_eq!(slice_work(SLICE_OPS), slice_work(SLICE_OPS));
        assert!(slice_ms() > 0.0);
    }
}
