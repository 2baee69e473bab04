//! The four workloads. Each builds its inputs and references from the
//! seed once, in set-up; every op then gets a freshly owned copy.

use crate::bench::{Route, Workload};
use crate::inputs::{self, Rng};
use crate::layers::{
    leaf_pair, median_ns, split_ns_of, tree_ns, Access, Decomp, Layers, LeafTiming,
};
use forkjoin::ForkJoinPool;
use jplf::{Executor, ForkJoinExecutor, PowerFunction, SequentialExecutor};
use jstreams::{power_stream, Collector, Decomposition, ItemSource, VecCollector};
use plalgo::{Complex, FftFunction, PolynomialCollector};
use powerlist::{PowerList, PowerView, Storage};
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions of each leaf probe.
const LEAF_REPS: usize = 9;
/// Repetitions of each split and combine probe.
const PROBE_REPS: usize = 5;
/// Scalar combines timed together, to rise above timer resolution.
const BATCH: usize = 1000;

fn owned<T: Clone>(v: &[T]) -> PowerList<T> {
    PowerList::from_vec(v.to_vec()).expect("workload sizes are powers of two")
}

fn view<T: Clone>(v: &[T], start: usize, len: usize, incr: usize) -> PowerView<T> {
    PowerView::from_parts(Storage::new(v.to_vec()), start, len, incr)
        .expect("leaf views stay inside the input")
}

fn batched_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    median_ns(
        PROBE_REPS,
        || (),
        |()| {
            for _ in 0..BATCH {
                black_box(f());
            }
        },
    ) / BATCH as f64
}

// ---------------------------------------------------------------- poly_zip

/// The paper's workload: polynomial evaluation through the hooked zip
/// spliterator and the shared-state collector.
pub struct PolyZip {
    coeffs: Vec<f64>,
    expected: f64,
    /// Horner over |coefficients|: the condition scale of the sum.
    scale: f64,
}

impl PolyZip {
    /// Coefficients per op.
    pub const N: usize = 1 << 22;
    /// Evaluation point.
    pub const X: f64 = 0.9999993;

    /// Inputs and reference from `seed`.
    pub fn new(seed: u64) -> Self {
        let coeffs = inputs::f64s(seed, Self::N);
        let abs: Vec<f64> = coeffs.iter().map(|c| c.abs()).collect();
        PolyZip {
            expected: plalgo::horner(&coeffs, Self::X),
            scale: plalgo::horner(&abs, Self::X),
            coeffs,
        }
    }
}

impl Workload for PolyZip {
    type Input = PowerList<f64>;
    type Output = f64;

    fn n(&self) -> usize {
        Self::N
    }

    fn input(&self, _op: u64) -> PowerList<f64> {
        owned(&self.coeffs)
    }

    fn execute(
        &self,
        route: Route,
        c: PowerList<f64>,
        pool: &Arc<ForkJoinPool>,
    ) -> Result<f64, String> {
        Ok(match route {
            Route::Par => plalgo::eval_par_stream_with(c, Self::X, Some(Arc::clone(pool)), None),
            Route::Seq => plalgo::eval_seq_stream(c, Self::X),
            Route::Hand => plalgo::horner(c.as_slice(), Self::X),
        })
    }

    fn check(&self, _op: u64, out: &f64) -> bool {
        (out - self.expected).abs() <= 1e-8 * self.scale
    }

    fn entry(&self, route: Route) -> &'static str {
        match route {
            Route::Par => "jstreams.collect",
            Route::Seq => "jstreams.seq_stream",
            Route::Hand => "plalgo.horner",
        }
    }
}

impl Layers for PolyZip {
    fn access(&self) -> Access {
        Access {
            decomp: Decomp::Zip,
            elem: 8,
            out_per_elem: 0,
        }
    }

    fn split_ns(&self, leaves: usize) -> Option<f64> {
        let collector = PolynomialCollector::new(Self::X);
        Some(split_ns_of(PROBE_REPS, leaves, || {
            plalgo::poly_spliterator(owned(&self.coeffs), &collector)
        }))
    }

    fn stream_leaf(&self, leaves: usize) -> Option<LeafTiming> {
        let c = &self.coeffs;
        let y = Self::X.powi(leaves as i32);
        let collector = PolynomialCollector::new(Self::X);
        Some(leaf_pair(
            LEAF_REPS,
            c.len() / leaves,
            || (),
            |()| collector.leaf_strided(c, leaves).map(|acc| acc.val),
            |()| {
                let (mut acc, mut pw) = (0.0, 1.0);
                for &a in c.iter().step_by(leaves) {
                    acc += a * pw;
                    pw *= y;
                }
                acc
            },
        ))
    }

    fn stream_combine_ns(&self, leaves: usize, placement_share: f64) -> Option<f64> {
        let c = PolynomialCollector::new(Self::X);
        let acc = c
            .leaf_slice(&self.coeffs[..16])
            .expect("poly leaves are zero-copy");
        let one = batched_ns(|| c.combine(black_box(acc), black_box(acc)).val);
        Some(tree_ns(self.n(), leaves, |_| one) * (1.0 - placement_share))
    }
}

// ------------------------------------------------------------- tie_collect

fn affine(x: i64) -> i64 {
    x * 3 + 1
}

/// A tie-decomposed `map` collected to a vector: contiguous reads and
/// one write per element, on the placement route.
pub struct TieCollect {
    base: Vec<i64>,
    expected: Vec<i64>,
}

impl TieCollect {
    /// Elements per op.
    pub const N: usize = 1 << 22;

    /// Inputs and reference from `seed`.
    pub fn new(seed: u64) -> Self {
        let base = inputs::i64s(seed, Self::N);
        let expected = base.iter().map(|&x| affine(x)).collect();
        TieCollect { base, expected }
    }
}

impl Workload for TieCollect {
    type Input = PowerList<i64>;
    type Output = Vec<i64>;

    fn n(&self) -> usize {
        Self::N
    }

    fn input(&self, _op: u64) -> PowerList<i64> {
        owned(&self.base)
    }

    fn execute(
        &self,
        route: Route,
        l: PowerList<i64>,
        pool: &Arc<ForkJoinPool>,
    ) -> Result<Vec<i64>, String> {
        if route == Route::Hand {
            return Ok(l.iter().map(|&x| affine(x)).collect());
        }
        let mut stream = power_stream(l, Decomposition::Tie).with_pool(Arc::clone(pool));
        if route == Route::Seq {
            stream = stream.sequential();
        }
        let stream = stream.map(affine);
        let cfg = stream.exec_config().clone();
        stream.try_to_vec(&cfg).map_err(|e| e.to_string())
    }

    fn check(&self, _op: u64, out: &Vec<i64>) -> bool {
        *out == self.expected
    }

    fn entry(&self, route: Route) -> &'static str {
        match route {
            Route::Par => "jstreams.collect",
            Route::Seq => "jstreams.collect_seq",
            Route::Hand => "hand.map",
        }
    }
}

impl Layers for TieCollect {
    fn access(&self) -> Access {
        Access {
            decomp: Decomp::Tie,
            elem: 8,
            out_per_elem: 8,
        }
    }

    fn split_ns(&self, leaves: usize) -> Option<f64> {
        Some(split_ns_of(PROBE_REPS, leaves, || {
            power_stream(owned(&self.base), Decomposition::Tie)
                .map(affine)
                .into_spliterator()
        }))
    }

    fn stream_leaf(&self, leaves: usize) -> Option<LeafTiming> {
        let m = self.base.len() / leaves;
        Some(leaf_pair(
            LEAF_REPS,
            m,
            || owned(&self.base[..m]),
            |l| {
                let mut leaf = power_stream(l, Decomposition::Tie)
                    .map(affine)
                    .into_spliterator();
                let mut out = Vec::with_capacity(m);
                leaf.for_each_remaining(&mut |x| out.push(x));
                out
            },
            |l| l.iter().map(|&x| affine(x)).collect::<Vec<_>>(),
        ))
    }

    fn stream_combine_ns(&self, leaves: usize, placement_share: f64) -> Option<f64> {
        let tree = tree_ns(self.n(), leaves, |child| {
            median_ns(
                PROBE_REPS,
                || (vec![1i64; child], vec![2i64; child]),
                |(l, r)| Collector::<i64>::combine(&VecCollector, l, r),
            )
        });
        Some(tree * (1.0 - placement_share))
    }
}

// ----------------------------------------------------------- search_needle

/// What one search op asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// `any_match(x < 0)`.
    Any,
    /// `filter(x < 0).find_first()`.
    First,
}

/// One search op: its question and where its needle sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The terminal op.
    pub ask: Ask,
    /// Needle position, `None` when absent.
    pub pos: Option<usize>,
}

/// A search result, whichever terminal produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// `any_match`'s answer.
    Any(bool),
    /// `find_first`'s answer.
    First(Option<i64>),
}

/// Short-circuit search for a needle: latency-bound, so pool submit,
/// cancellation and pruning dominate.
pub struct SearchNeedle {
    base: Vec<i64>,
    /// Reference: a linear position scan of the needle-free base.
    base_first: Option<usize>,
    seed: u64,
}

impl SearchNeedle {
    /// Elements per op: a mid-list needle costs milliseconds. At 2^20
    /// the peak RSS did not repeat from run to run (see `METRICS.md`).
    pub const N: usize = 1 << 22;
    /// Ops per stratified block: each block has exactly
    /// [`Self::ABSENT`] needle-free ops, and one present needle in each
    /// of the remaining equal slices of [0, n).
    pub const BLOCK: u64 = 64;
    /// Needle-free ops per block (one in eight).
    pub const ABSENT: u64 = 8;

    /// Inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        let base = inputs::i64s(seed, Self::N);
        SearchNeedle {
            base_first: base.iter().position(is_needle),
            base,
            seed,
        }
    }

    /// Op `op`'s question and needle position, drawn from the seed.
    /// Each position is uniform over [0, n), but positions are
    /// stratified per block of ops, so a run's median op time depends
    /// little on which seed drew them.
    pub fn spec(&self, op: u64) -> Spec {
        let (block, idx) = (op / Self::BLOCK, op % Self::BLOCK);
        let mut order: Vec<u64> = (0..Self::BLOCK).collect();
        let mut r = Rng::new(self.seed, 1000 + block);
        for i in (1..order.len()).rev() {
            order.swap(i, r.below(i as u64 + 1) as usize);
        }
        let slot = order[idx as usize];
        let ask = if slot.is_multiple_of(2) {
            Ask::Any
        } else {
            Ask::First
        };
        if slot < Self::ABSENT {
            return Spec { ask, pos: None };
        }
        let strata = Self::BLOCK - Self::ABSENT;
        let u = Rng::new(self.seed, (1 << 32) | op).unit();
        let pos = ((slot - Self::ABSENT) as f64 + u) * Self::N as f64 / strata as f64;
        Spec {
            ask,
            pos: Some((pos as usize).min(Self::N - 1)),
        }
    }

    /// The needle stored at `pos`: negative, and naming its position,
    /// so `find_first` proves which match it found.
    fn needle(pos: usize) -> i64 {
        -(pos as i64) - 1
    }
}

fn is_needle(x: &i64) -> bool {
    *x < 0
}

impl Workload for SearchNeedle {
    type Input = (PowerList<i64>, Ask);
    type Output = Found;

    fn n(&self) -> usize {
        Self::N
    }

    fn input(&self, op: u64) -> (PowerList<i64>, Ask) {
        let spec = self.spec(op);
        let mut v = self.base.clone();
        if let Some(p) = spec.pos {
            v[p] = Self::needle(p);
        }
        (PowerList::from_vec(v).expect("power-of-two size"), spec.ask)
    }

    fn execute(
        &self,
        route: Route,
        (l, ask): (PowerList<i64>, Ask),
        pool: &Arc<ForkJoinPool>,
    ) -> Result<Found, String> {
        if route == Route::Hand {
            return Ok(match ask {
                Ask::Any => Found::Any(l.iter().any(is_needle)),
                Ask::First => Found::First(l.iter().position(is_needle).map(|i| l.as_slice()[i])),
            });
        }
        let mut stream = power_stream(l, Decomposition::Tie).with_pool(Arc::clone(pool));
        if route == Route::Seq {
            stream = stream.sequential();
        }
        let cfg = stream.exec_config().clone();
        match ask {
            Ask::Any => stream.try_any_match(is_needle, &cfg).map(Found::Any),
            Ask::First => stream
                .filter(is_needle)
                .try_find_first(&cfg)
                .map(Found::First),
        }
        .map_err(|e| e.to_string())
    }

    /// Reference: the first match is the earlier of the op's needle and
    /// the base's own first match (from its set-up position scan).
    fn check(&self, op: u64, out: &Found) -> bool {
        let spec = self.spec(op);
        let first = match (spec.pos, self.base_first) {
            (Some(p), Some(b)) => Some(p.min(b)),
            (p, b) => p.or(b),
        };
        *out == match spec.ask {
            Ask::Any => Found::Any(first.is_some()),
            Ask::First => Found::First(first.map(|i| {
                if Some(i) == spec.pos {
                    Self::needle(i)
                } else {
                    self.base[i]
                }
            })),
        }
    }

    fn entry(&self, route: Route) -> &'static str {
        match route {
            Route::Par => "jstreams.search",
            Route::Seq => "jstreams.search_seq",
            Route::Hand => "hand.position",
        }
    }
}

impl Layers for SearchNeedle {
    fn access(&self) -> Access {
        Access {
            decomp: Decomp::Tie,
            elem: 8,
            out_per_elem: 0,
        }
    }

    fn split_ns(&self, leaves: usize) -> Option<f64> {
        Some(split_ns_of(PROBE_REPS, leaves, || {
            power_stream(owned(&self.base), Decomposition::Tie)
                .filter(is_needle)
                .into_spliterator()
        }))
    }

    /// A needle-free leaf: the scan runs to its end.
    fn stream_leaf(&self, leaves: usize) -> Option<LeafTiming> {
        let m = self.base.len() / leaves;
        Some(leaf_pair(
            LEAF_REPS,
            m,
            || owned(&self.base[..m]),
            |l| {
                power_stream(l, Decomposition::Tie)
                    .sequential()
                    .any_match(is_needle)
            },
            |l| l.iter().any(is_needle),
        ))
    }

    fn items_needed(&self, op: u64) -> Option<u64> {
        Some(self.spec(op).pos.map_or(Self::N, |p| p + 1) as u64)
    }
}

// ---------------------------------------------------------------- fft_jplf

/// FFT through the jplf fork-join executor: the only workload on the
/// jplf driver, and the only one whose combine does O(n) work.
pub struct FftJplf {
    base: Vec<Complex>,
    expected: PowerList<Complex>,
    scale: f64,
    leaf: usize,
}

impl FftJplf {
    /// Points per op.
    pub const N: usize = 1 << 18;

    /// Inputs and reference from `seed`; `threads` sets the leaf size.
    pub fn new(seed: u64, threads: usize) -> Self {
        let re = inputs::f64s(seed, Self::N);
        let im = inputs::f64s(seed ^ 0x5EED, Self::N);
        let base: Vec<Complex> = re
            .into_iter()
            .zip(im)
            .map(|(a, b)| Complex::new(a, b))
            .collect();
        let expected = plalgo::fft_seq(&owned(&base));
        let scale = 1.0 + expected.iter().map(|z| z.abs()).fold(0.0, f64::max);
        FftJplf {
            base,
            expected,
            scale,
            leaf: jstreams::default_leaf_size(Self::N, threads),
        }
    }
}

impl Workload for FftJplf {
    type Input = PowerList<Complex>;
    type Output = PowerList<Complex>;

    fn n(&self) -> usize {
        Self::N
    }

    fn input(&self, _op: u64) -> PowerList<Complex> {
        owned(&self.base)
    }

    fn execute(
        &self,
        route: Route,
        l: PowerList<Complex>,
        pool: &Arc<ForkJoinPool>,
    ) -> Result<PowerList<Complex>, String> {
        match route {
            Route::Par => ForkJoinExecutor::with_pool(Arc::clone(pool), self.leaf).try_execute(
                &FftFunction,
                &l.view(),
                &jplf::ExecConfig::par(),
            ),
            Route::Seq => {
                SequentialExecutor.try_execute(&FftFunction, &l.view(), &jplf::ExecConfig::seq())
            }
            Route::Hand => Ok(plalgo::fft_seq(&l)),
        }
        .map_err(|e| e.to_string())
    }

    fn check(&self, _op: u64, out: &PowerList<Complex>) -> bool {
        out.len() == self.expected.len()
            && out
                .iter()
                .zip(self.expected.iter())
                .all(|(a, b)| (*a - *b).abs() <= 1e-9 * self.scale)
    }

    fn entry(&self, route: Route) -> &'static str {
        match route {
            Route::Par => "jplf.forkjoin_execute",
            Route::Seq => "jplf.sequential_execute",
            Route::Hand => "plalgo.fft_seq",
        }
    }
}

impl Layers for FftJplf {
    fn access(&self) -> Access {
        Access {
            decomp: Decomp::Zip,
            elem: 16,
            out_per_elem: 16,
        }
    }

    fn jplf_leaf_ns_per_elem(&self, leaves: usize) -> Option<f64> {
        let m = self.base.len() / leaves;
        let v = view(&self.base, 0, m, leaves);
        Some(median_ns(LEAF_REPS, || (), |()| FftFunction.leaf_case(&v)) / m as f64)
    }

    fn jplf_combine_ns(&self, leaves: usize) -> Option<f64> {
        Some(tree_ns(self.n(), leaves, |child| {
            median_ns(
                PROBE_REPS,
                || (owned(&self.base[..child]), owned(&self.base[..child])),
                |(l, r)| FftFunction.combine(l, r),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_specs_follow_the_seed() {
        let bare = |seed| SearchNeedle {
            base: Vec::new(),
            base_first: None,
            seed,
        };
        let (a, b, c) = (bare(11), bare(11), bare(12));
        let specs = |w: &SearchNeedle| (0..256).map(|op| w.spec(op)).collect::<Vec<_>>();
        assert_eq!(specs(&a), specs(&b));
        assert_ne!(specs(&a), specs(&c));
        let s = specs(&a);
        for block in s.chunks(SearchNeedle::BLOCK as usize) {
            let absent = block.iter().filter(|s| s.pos.is_none()).count();
            assert_eq!(
                absent as u64,
                SearchNeedle::ABSENT,
                "one op in eight is needle-free"
            );
            let mut strata: Vec<usize> = block
                .iter()
                .filter_map(|s| s.pos)
                .map(|p| p * 56 / SearchNeedle::N)
                .collect();
            strata.sort_unstable();
            assert_eq!(
                strata,
                (0..56).collect::<Vec<_>>(),
                "one needle per slice of [0, n)"
            );
            let any = block.iter().filter(|s| s.ask == Ask::Any).count();
            assert_eq!(any, 32, "half the ops ask any_match");
        }
    }
}
