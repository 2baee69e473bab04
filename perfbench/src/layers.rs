//! Per-layer probes: each times one layer's public entry point on the
//! workload's own data, from outside the library.

use crate::bench::Workload;
use crate::stats::median;
use forkjoin::ForkJoinPool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Cache-line size the computed byte counts assume.
pub const LINE: u64 = 64;

/// Which deconstruction assigns elements to leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    /// Leaf `k` of `L` holds the contiguous block `k`.
    Tie,
    /// Leaf `k` of `L` holds residue class `k` (stride `L`).
    Zip,
}

/// Memory shape of one op, for the computed bytes its leaves touch.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// How the input reaches the leaves.
    pub decomp: Decomp,
    /// Bytes of one input element.
    pub elem: u64,
    /// Bytes the leaves write per element read (0 for a scalar result).
    pub out_per_elem: u64,
}

/// Distinct cache lines touched by `count` elements of `elem` bytes at
/// byte offsets `offset + k·stride`. Elements are assumed aligned to
/// their size, with `elem` dividing [`LINE`].
pub fn lines_touched(offset: u64, stride: u64, count: u64, elem: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    if stride >= LINE {
        return count;
    }
    if LINE.is_multiple_of(stride) && stride >= elem {
        return (offset + (count - 1) * stride) / LINE - offset / LINE + 1;
    }
    let mut lines: Vec<u64> = (0..count).map(|k| (offset + k * stride) / LINE).collect();
    lines.dedup();
    lines.len() as u64
}

/// Computed bytes (whole lines) the leaves of one op touch: `items`
/// elements read through `leaves` leaves, plus the output they write.
pub fn leaf_touched_bytes(a: Access, items: u64, leaves: u64) -> u64 {
    let leaves = leaves.max(1);
    let per_leaf = items / leaves;
    let read: u64 = (0..leaves)
        .map(|k| match a.decomp {
            Decomp::Tie => lines_touched(k * per_leaf * a.elem, a.elem, per_leaf, a.elem),
            Decomp::Zip => lines_touched(k * a.elem, leaves * a.elem, per_leaf, a.elem),
        })
        .sum();
    let written = (items * a.out_per_elem).div_ceil(LINE);
    (read + written) * LINE
}

/// Cost of every combine of a `leaves`-leaf binary tree over `n`
/// elements, given the cost of one combine of two `child_len`-element
/// children.
pub fn tree_ns(n: usize, leaves: usize, mut combine_ns: impl FnMut(usize) -> f64) -> f64 {
    let leaves = leaves.max(1);
    let mut total = 0.0;
    let mut child = n / leaves;
    let mut combines = leaves / 2;
    while combines > 0 {
        total += combines as f64 * combine_ns(child);
        child *= 2;
        combines /= 2;
    }
    total
}

/// Median ns of `reps` calls of `run`, each on a fresh `make()` built
/// outside the timer; `run`'s output is dropped outside it too.
pub fn median_ns<I, O>(
    reps: usize,
    mut make: impl FnMut() -> I,
    mut run: impl FnMut(I) -> O,
) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let input = make();
            let t = Instant::now();
            let out = black_box(run(black_box(input)));
            let ns = t.elapsed().as_nanos() as f64;
            drop(out);
            ns
        })
        .collect();
    median(&xs)
}

/// Library leaf and hand loop over the same run, timed interleaved.
#[derive(Debug, Clone, Copy)]
pub struct LeafTiming {
    /// Median ns of the library's leaf kernel.
    pub lib_ns: f64,
    /// Median ns of the hand-written loop over the same run.
    pub hand_ns: f64,
    /// Elements in the run.
    pub elems: usize,
}

/// Times `lib` and `hand` alternately, `reps` times each.
pub fn leaf_pair<I, A, B>(
    reps: usize,
    elems: usize,
    mut make: impl FnMut() -> I,
    mut lib: impl FnMut(I) -> A,
    mut hand: impl FnMut(I) -> B,
) -> LeafTiming {
    let (mut l, mut h) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        l.push(median_ns(1, &mut make, &mut lib));
        h.push(median_ns(1, &mut make, &mut hand));
    }
    LeafTiming {
        lib_ns: median(&l),
        hand_ns: median(&h),
        elems,
    }
}

/// The workload-specific layer probes. A probe answers `None` when its
/// layer is not on the workload's path; that metric is then reported
/// off path instead of measured.
pub trait Layers: Workload {
    /// Memory shape of one op.
    fn access(&self) -> Access;
    /// Median ns of one `try_split` of the op's own spliterator, split
    /// down to `leaves` leaves.
    fn split_ns(&self, _leaves: usize) -> Option<f64> {
        None
    }
    /// The streams leaf kernel on one leaf of a `leaves`-leaf op,
    /// against a hand loop over the same run and stride.
    fn stream_leaf(&self, _leaves: usize) -> Option<LeafTiming> {
        None
    }
    /// ns of the streams collector's public `combine` over the
    /// `leaves`-leaf tree, counting only combines that are not
    /// placement combines (`placement_share` of them are).
    fn stream_combine_ns(&self, _leaves: usize, _placement_share: f64) -> Option<f64> {
        None
    }
    /// Median ns per element of the jplf function's leaf case on one
    /// leaf of a `leaves`-leaf op.
    fn jplf_leaf_ns_per_elem(&self, _leaves: usize) -> Option<f64> {
        None
    }
    /// ns of the jplf function's `combine` over the `leaves`-leaf tree.
    fn jplf_combine_ns(&self, _leaves: usize) -> Option<f64> {
        None
    }
    /// Items a sequential scan must read to answer op `op`, on a
    /// search.
    fn items_needed(&self, _op: u64) -> Option<u64> {
        None
    }
}

/// Median µs of an empty `install` round trip.
pub fn install_us(pool: &Arc<ForkJoinPool>, reps: usize) -> f64 {
    median_ns(reps, || (), |()| pool.install(|| ())) / 1e3
}

/// Median ns of an empty `join_on`, issued from inside the pool.
pub fn join_ns(pool: &Arc<ForkJoinPool>, reps: usize) -> f64 {
    let p = Arc::clone(pool);
    pool.install(move || median_ns(reps, || (), |()| forkjoin::join_on(&p, || (), || ())))
}

/// Median GiB/s of a plain single-thread sum over `bytes` of memory.
pub fn read_gib_s(bytes: usize, reps: usize) -> f64 {
    let words: Vec<u64> = (0..(bytes / 8).max(1) as u64).collect();
    let ns = median_ns(
        reps,
        || (),
        |()| words.iter().fold(0u64, |a, &w| a.wrapping_add(w)),
    );
    words.len() as f64 * 8.0 / ns * 1e9 / (1u64 << 30) as f64
}

/// Splits `root` breadth-first until it has `leaves` parts (or stops
/// splitting).
pub fn split_to<T, S: jstreams::Spliterator<T>>(root: S, leaves: usize) -> Vec<S> {
    let mut parts = vec![root];
    while parts.len() < leaves {
        let before = parts.len();
        let mut next = Vec::with_capacity(2 * before);
        for mut p in parts {
            if let Some(prefix) = p.try_split() {
                next.push(prefix);
            }
            next.push(p);
        }
        parts = next;
        if parts.len() == before {
            break;
        }
    }
    parts
}

/// Median ns per `try_split` of splitting a fresh `make()` down to
/// `leaves` leaves.
pub fn split_ns_of<T, S: jstreams::Spliterator<T>>(
    reps: usize,
    leaves: usize,
    make: impl FnMut() -> S,
) -> f64 {
    let mut splits = 0;
    let ns = median_ns(reps, make, |root| {
        let parts = split_to(root, leaves);
        splits = parts.len() - 1;
        parts
    });
    ns / splits.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(offset: u64, stride: u64, count: u64, elem: u64) -> u64 {
        let mut lines: Vec<u64> = (0..count)
            .flat_map(|k| {
                let a = offset + k * stride;
                a / LINE..=(a + elem - 1) / LINE
            })
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }

    #[test]
    fn lines_touched_matches_enumeration() {
        for elem in [8, 16] {
            for stride_elems in [1, 2, 3, 4, 8, 16] {
                for offset_elems in [0, 1, 5] {
                    for count in [0, 1, 7, 64, 129] {
                        let (o, s) = (offset_elems * elem, stride_elems * elem);
                        assert_eq!(
                            lines_touched(o, s, count, elem),
                            brute(o, s, count, elem),
                            "offset {o} stride {s} count {count} elem {elem}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zip_leaves_touch_every_line_once_per_leaf() {
        const MIB: u64 = 1 << 20;
        let n = 1u64 << 22;
        let zip = Access {
            decomp: Decomp::Zip,
            elem: 8,
            out_per_elem: 0,
        };
        let tie = Access {
            decomp: Decomp::Tie,
            elem: 8,
            out_per_elem: 8,
        };
        // 8 stride-8 leaves over 32 MiB of f64: each reads all 32 MiB.
        assert_eq!(leaf_touched_bytes(zip, n, 8), 256 * MIB);
        // Contiguous leaves read the input once and write the output once.
        assert_eq!(leaf_touched_bytes(tie, n, 8), 64 * MIB);
        // A zip with one leaf is a contiguous scan.
        assert_eq!(leaf_touched_bytes(zip, n, 1), 32 * MIB);
        // Stride 4 f64 = 32 bytes: two elements share each line.
        assert_eq!(leaf_touched_bytes(zip, n, 4), 4 * 32 * MIB);
    }

    #[test]
    fn tree_sums_every_level() {
        // 8 leaves of 4 over 32: 4 combines of 4, 2 of 8, 1 of 16.
        let mut seen = Vec::new();
        let total = tree_ns(32, 8, |c| {
            seen.push(c);
            c as f64
        });
        assert_eq!(seen, vec![4, 8, 16]);
        assert_eq!(total, 4.0 * 4.0 + 2.0 * 8.0 + 16.0);
        assert_eq!(tree_ns(32, 1, |_| 1.0), 0.0);
    }
}
