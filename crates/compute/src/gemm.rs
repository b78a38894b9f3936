//! Cache-blocked, row-parallel GEMM kernels over `f32` slices (plus an
//! int8 variant for the quantized serving path).
//!
//! Every kernel accumulates each output element over the shared dimension
//! in a **fixed schedule** (ascending index order, with dot products
//! optionally lane-split by the SIMD bodies — see [`crate::simd`]), and
//! parallelism only ever partitions the *output* rows (each element is
//! written by exactly one thread). Results are therefore bit-identical at
//! every thread count, which is what lets the training loops built on top
//! assert byte-identical weights between `NOODLE_THREADS=1` and
//! `NOODLE_THREADS>=4` runs.
//!
//! Layouts are row-major. `a @ b` uses the classic `i-p-j` loop with the
//! inner `j` loop blocked so the active panel of `b` stays cache-resident;
//! the `j` blocking does not reorder the `p` accumulation of any element.
//! The per-row-range inner bodies live in [`crate::simd`] and are selected
//! once per kernel call from the runtime-detected instruction set.

use std::sync::OnceLock;

use noodle_trace::{EventKind, KernelTimer};

use crate::pool::{add_flops, par_for};
use crate::simd;

/// Tile side for the blocked transpose.
const TRANSPOSE_TILE: usize = 32;

/// Rough number of multiply-adds we want per parallel chunk, so tiny
/// matrices stay serial and large ones split into enough chunks to load
/// every core. Depends only on the problem shape — never on the thread
/// count — so chunk boundaries (and thus any reduction order) are stable.
const MADDS_PER_CHUNK: usize = 1 << 15;

/// Rows per parallel chunk for an output with `row_cost` multiply-adds
/// per row.
fn row_grain(row_cost: usize) -> usize {
    (MADDS_PER_CHUNK / row_cost.max(1)).max(1)
}

/// A mutable output pointer shared across the row-partitioned workers.
#[derive(Clone, Copy)]
struct OutPtr<T>(*mut T);

// SAFETY: each parallel chunk touches a disjoint row range of the output,
// and the unique borrow lives for the whole parallel region.
unsafe impl<T: Send> Send for OutPtr<T> {}
unsafe impl<T: Send> Sync for OutPtr<T> {}

impl<T> OutPtr<T> {
    /// Reborrows rows `rows.start..rows.end` of an `[_, n]` matrix.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and disjoint from every other chunk, and
    /// the output must outlive the returned slice.
    unsafe fn rows<'a>(self, rows: &std::ops::Range<usize>, n: usize) -> &'a mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(rows.start * n), rows.len() * n) }
    }
}

fn check_dims(name: &str, m: usize, k: usize, n: usize, a: usize, b: usize, out: usize) {
    assert_eq!(a, m * k, "{name}: lhs has {a} elements, expected {m}x{k}");
    assert_eq!(b, k * n, "{name}: rhs has {b} elements, expected {k}x{n}");
    assert_eq!(out, m * n, "{name}: out has {out} elements, expected {m}x{n}");
}

/// Bytes-touched estimate for a kernel over the given slices (used as the
/// profiler's byte payload; counts each operand once).
fn kernel_bytes(a: usize, b: usize, out: usize) -> u64 {
    (4 * (a + b + out)) as u64
}

/// `out += a @ b` for row-major `a: [m, k]`, `b: [k, n]`, `out: [m, n]`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check_dims("gemm", m, k, n, a.len(), b.len(), out.len());
    if m == 0 || n == 0 {
        return;
    }
    add_flops(2 * (m * n * k) as u64);
    let _prof = KernelTimer::start(
        EventKind::Gemm,
        2 * (m * n * k) as u64,
        kernel_bytes(a.len(), b.len(), out.len()),
    );
    let isa = simd::active_isa();
    let optr = OutPtr(out.as_mut_ptr());
    par_for(m, row_grain(k * n), |rows| {
        // SAFETY: chunks partition `0..m`, so row ranges are disjoint.
        let chunk = unsafe { optr.rows(&rows, n) };
        simd::gemm_rows(isa, rows, k, n, a, b, chunk);
    });
}

/// `out += a @ bt^T` for row-major `a: [m, k]`, `bt: [n, k]`, `out: [m, n]`.
///
/// The transposed-operand form of [`gemm`]: both operands stream
/// row-major, so backward passes avoid materializing an explicit
/// transpose. Each output element is a single dot product over `k`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_bt: lhs has {} elements, expected {m}x{k}", a.len());
    assert_eq!(bt.len(), n * k, "gemm_bt: rhs has {} elements, expected {n}x{k}", bt.len());
    assert_eq!(out.len(), m * n, "gemm_bt: out has {} elements, expected {m}x{n}", out.len());
    if m == 0 || n == 0 {
        return;
    }
    add_flops(2 * (m * n * k) as u64);
    let _prof = KernelTimer::start(
        EventKind::GemmBt,
        2 * (m * n * k) as u64,
        kernel_bytes(a.len(), bt.len(), out.len()),
    );
    let isa = simd::active_isa();
    let optr = OutPtr(out.as_mut_ptr());
    par_for(m, row_grain(k * n), |rows| {
        // SAFETY: chunks partition `0..m`, so row ranges are disjoint.
        let chunk = unsafe { optr.rows(&rows, n) };
        simd::gemm_bt_rows(isa, rows, k, n, a, bt, chunk);
    });
}

/// `out += a @ bt^T` over int8 operands with exact `i32` accumulation:
/// the quantized serving path's matmul (`a: [m, k]` row-quantized
/// activations, `bt: [n, k]` per-channel-quantized weights,
/// `out: [m, n]` accumulators).
///
/// Integer accumulation is exact, so results are bit-identical across
/// thread counts *and* instruction sets — the scalar and SIMD bodies
/// agree to the bit, unlike the float kernels which agree only to
/// rounding.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm_bt_i8(m: usize, k: usize, n: usize, a: &[i8], bt: &[i8], out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_bt_i8: lhs has {} elements, expected {m}x{k}", a.len());
    assert_eq!(bt.len(), n * k, "gemm_bt_i8: rhs has {} elements, expected {n}x{k}", bt.len());
    assert_eq!(out.len(), m * n, "gemm_bt_i8: out has {} elements, expected {m}x{n}", out.len());
    if m == 0 || n == 0 {
        return;
    }
    add_flops(2 * (m * n * k) as u64);
    let _prof = KernelTimer::start(
        EventKind::GemmI8,
        2 * (m * n * k) as u64,
        (a.len() + bt.len() + 4 * out.len()) as u64,
    );
    let isa = simd::active_isa();
    let optr = OutPtr(out.as_mut_ptr());
    par_for(m, row_grain(k * n), |rows| {
        // SAFETY: chunks partition `0..m`, so row ranges are disjoint.
        let chunk = unsafe { optr.rows(&rows, n) };
        simd::gemm_bt_rows_i8(isa, rows, k, n, a, bt, chunk);
    });
}

/// `out += a^T @ b` for row-major `a: [k, m]`, `b: [k, n]`, `out: [m, n]`.
///
/// The other transposed-operand form: gradient kernels compute
/// `dW += dY^T @ X` without materializing `dY^T`. The `p` (shared-dim)
/// loop runs outermost so both operands stream row-major; each element
/// still accumulates over ascending `p`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm_at(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_at: lhs has {} elements, expected {k}x{m}", a.len());
    assert_eq!(b.len(), k * n, "gemm_at: rhs has {} elements, expected {k}x{n}", b.len());
    assert_eq!(out.len(), m * n, "gemm_at: out has {} elements, expected {m}x{n}", out.len());
    if m == 0 || n == 0 {
        return;
    }
    add_flops(2 * (m * n * k) as u64);
    let _prof = KernelTimer::start(
        EventKind::GemmAt,
        2 * (m * n * k) as u64,
        kernel_bytes(a.len(), b.len(), out.len()),
    );
    let isa = simd::active_isa();
    let optr = OutPtr(out.as_mut_ptr());
    par_for(m, row_grain(k * n), |rows| {
        // SAFETY: chunks partition `0..m`, so row ranges are disjoint.
        let chunk = unsafe { optr.rows(&rows, n) };
        simd::gemm_at_rows(isa, rows, m, n, a, b, chunk);
    });
}

/// Writes the transpose of row-major `src: [m, n]` into `dst: [n, m]`,
/// walking `TRANSPOSE_TILE`-square tiles so both the reads and the writes
/// stay within a cache-line-friendly window (the naive column-major write
/// loop misses on every store once `m` exceeds a few cache lines).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the dimensions.
pub fn transpose(m: usize, n: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), m * n, "transpose: src has {} elements, expected {m}x{n}", src.len());
    assert_eq!(dst.len(), m * n, "transpose: dst has {} elements, expected {n}x{m}", dst.len());
    let mut i0 = 0;
    while i0 < m {
        let i1 = m.min(i0 + TRANSPOSE_TILE);
        let mut j0 = 0;
        while j0 < n {
            let j1 = n.min(j0 + TRANSPOSE_TILE);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * m + i] = src[i * n + j];
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

static GEMM_PEAK: OnceLock<f64> = OnceLock::new();

/// Measured single-core GEMM peak throughput in GFLOP/s: the roofline
/// ceiling profile summaries compare achieved kernel throughput against.
///
/// Times the same dispatched inner-loop body [`gemm`] runs — including
/// the SIMD microkernel when one is active, so the ceiling and the
/// attributed kernels move together and the roofline gap stays honest —
/// on an L1-resident 48³ problem, serially on the calling thread (no
/// pool, no profiler events, no FLOP accounting). Measured once per
/// process (~1 ms) and cached under the instruction set active at the
/// first call (the CLI resolves `--no-simd` before any kernel runs).
pub fn gemm_peak_gflops() -> f64 {
    const DIM: usize = 48;
    const REPS: u32 = 24;
    *GEMM_PEAK.get_or_init(|| {
        let isa = simd::active_isa();
        let a: Vec<f32> = (0..DIM * DIM).map(|i| ((i * 31 + 7) % 61) as f32 * 0.1 - 3.0).collect();
        let b: Vec<f32> = (0..DIM * DIM).map(|i| ((i * 17 + 3) % 53) as f32 * 0.1 - 2.5).collect();
        let mut out = vec![0.0f32; DIM * DIM];
        for _ in 0..4 {
            simd::gemm_rows(isa, 0..DIM, DIM, DIM, &a, &b, &mut out);
        }
        let start = std::time::Instant::now();
        for _ in 0..REPS {
            simd::gemm_rows(isa, 0..DIM, DIM, DIM, &a, &b, &mut out);
        }
        let ns = start.elapsed().as_nanos().max(1) as f64;
        std::hint::black_box(&out);
        2.0 * (DIM * DIM * DIM) as f64 * f64::from(REPS) / ns
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::set_thread_override;

    fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn ramp(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 + 11) % 97) as f32 * 0.25 - 12.0).collect()
    }

    #[test]
    fn gemm_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 2), (7, 13, 5), (16, 144, 32), (33, 65, 40)] {
            let a = ramp(m * k);
            let b = ramp(k * n);
            let mut out = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            let expect = naive_gemm(m, k, n, &a, &b);
            for (x, y) in out.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3, "{x} vs {y} at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn transposed_variants_match_gemm() {
        let (m, k, n) = (9, 17, 6);
        let a = ramp(m * k);
        let b = ramp(k * n);
        let mut at = vec![0.0; m * k];
        transpose(m, k, &a, &mut at); // at: [k, m]
        let mut bt = vec![0.0; k * n];
        transpose(k, n, &b, &mut bt); // bt: [n, k]

        let mut base = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut base);
        let mut via_at = vec![0.0; m * n];
        gemm_at(k, m, n, &at, &b, &mut via_at);
        let mut via_bt = vec![0.0; m * n];
        gemm_bt(m, k, n, &a, &bt, &mut via_bt);
        for ((x, y), z) in base.iter().zip(&via_at).zip(&via_bt) {
            assert!((x - y).abs() < 1e-4 && (x - z).abs() < 1e-4, "{x} {y} {z}");
        }
    }

    #[test]
    fn gemm_accumulates_into_out() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut out = [10.0f32];
        gemm(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out[0], 21.0);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let (m, k, n) = (64, 50, 48);
        let a = ramp(m * k);
        let b = ramp(k * n);
        let run = |threads: usize| {
            set_thread_override(Some(threads));
            let mut out = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            set_thread_override(None);
            out
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            let par = run(threads);
            assert!(
                serial.iter().zip(&par).all(|(x, y)| x.to_bits() == y.to_bits()),
                "gemm differs at {threads} threads"
            );
        }
    }

    #[test]
    fn transpose_round_trip() {
        for (m, n) in [(1, 1), (3, 5), (40, 33), (64, 64)] {
            let src = ramp(m * n);
            let mut t = vec![0.0; m * n];
            transpose(m, n, &src, &mut t);
            let mut back = vec![0.0; m * n];
            transpose(n, m, &t, &mut back);
            assert_eq!(src, back, "round trip failed for {m}x{n}");
            if m > 1 && n > 1 {
                assert_eq!(t[m], src[1], "t[1][0] must be src[0][1]");
            }
        }
    }

    #[test]
    fn zero_sized_edges() {
        gemm(0, 3, 4, &[], &ramp(12), &mut []);
        gemm(3, 0, 4, &[], &[], &mut [0.0; 12]);
        gemm_bt(2, 0, 2, &[], &[], &mut [0.0; 4]);
        gemm_at(0, 2, 2, &[], &[], &mut [0.0; 4]);
        gemm_bt_i8(2, 0, 2, &[], &[], &mut [0i32; 4]);
        transpose(0, 5, &[], &mut []);
    }

    #[test]
    fn gemm_bt_i8_matches_naive_and_accumulates() {
        let (m, k, n) = (3, 21, 4);
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 7) % 255) as i8).collect();
        let bt: Vec<i8> = (0..n * k).map(|i| ((i * 13 + 5) % 255) as i8).collect();
        let mut out = vec![1i32; m * n];
        gemm_bt_i8(m, k, n, &a, &bt, &mut out);
        for i in 0..m {
            for j in 0..n {
                let want: i32 =
                    (0..k).map(|p| i32::from(a[i * k + p]) * i32::from(bt[j * k + p])).sum::<i32>()
                        + 1;
                assert_eq!(out[i * n + j], want, "mismatch at ({i}, {j})");
            }
        }
    }

    #[test]
    fn gemm_bt_i8_is_thread_count_invariant() {
        let (m, k, n) = (40, 50, 12);
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 19 + 2) % 255) as i8).collect();
        let bt: Vec<i8> = (0..n * k).map(|i| ((i * 23 + 9) % 255) as i8).collect();
        let run = |threads: usize| {
            set_thread_override(Some(threads));
            let mut out = vec![0i32; m * n];
            gemm_bt_i8(m, k, n, &a, &bt, &mut out);
            set_thread_override(None);
            out
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(serial, run(threads), "gemm_bt_i8 differs at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "gemm: lhs")]
    fn dimension_mismatch_panics() {
        gemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    fn peak_measurement_is_positive_and_cached() {
        let peak = gemm_peak_gflops();
        assert!(peak > 0.0, "measured GEMM peak must be positive, got {peak}");
        // Cached: a second call returns the identical bits instantly.
        assert_eq!(peak.to_bits(), gemm_peak_gflops().to_bits());
    }
}
