//! Lane-chunked evaluation kernels behind the [`KernelSet`] trait.
//!
//! # Dispatch model
//!
//! Every [`crate::Engine`] sweep runs one of two evaluator cores,
//! selected by [`KernelKind`] (see [`crate::Engine::with_kernel`]):
//!
//! * **`Scalar`** — the reference: per-instruction loops through the
//!   [`problp_num::Arith`] context. The fused core is defined as
//!   "bit-identical to this".
//! * **`Fused`** — the production core: the [`crate::FusedTape`]
//!   superinstruction stream ([`crate::Tape::fuse`]) through this
//!   trait's row ops. [`KernelSet::bin_rows`] runs the unfused binary
//!   steps; [`KernelSet::mul_acc_rows`] and [`KernelSet::reduce_rows`]
//!   keep chain partials in local accumulators instead of round-tripping
//!   them through the destination row. The vectorized implementations
//!   process fixed-width chunks of [`LANE_WIDTH`] lanes that the
//!   compiler can keep in vector registers (portable `core::simd`-style:
//!   plain local arrays, no intrinsics, a scalar tail for the remainder).
//!
//! Every engine the serving pool ([`crate::CircuitPool`]) hosts runs the
//! fused core; the scalar core stays as the reference the conformance
//! matrix and the property tests prove it against.
//!
//! # Which arithmetics vectorize
//!
//! | Arith       | kernels                 | why it stays bit-identical     |
//! |-------------|-------------------------|--------------------------------|
//! | `f64`       | vectorized, width 8     | same scalar op per lane; the multiply and accumulate of `MulAcc` stay two roundings (never FMA-contracted) |
//! | `fixed:I.F` | fast path for `I+F <= 63`, `Reduce` folded over [`LANE_WIDTH`]-lane blocks | native 64×64 → 128-bit product + the exact same half-up/truncate rounding, saturation and flag rules as [`problp_num::Fixed`]; each lane still folds left to right; wider formats fall back to the scalar ops |
//! | `float:E.M` | scalar fallback         | software-emulated rounding has no profitable lockstep form, so it keeps the defaulted reference loops |
//!
//! Every override is gated by `problp-conformance`: the differential
//! matrix runs the `fused` backends against the scalar walk on every
//! arithmetic × semiring and fails on the first differing bit.

// Row kernels take flat `(op, regs, d, acc, a, b, n)` argument lists on
// purpose: the hot path wants plain scalars, not a params struct the
// optimizer has to see through.
#![allow(clippy::too_many_arguments)]

use problp_num::{Arith, F64Arith, Fixed, FixedArith, FixedRounding, Flags, FloatArith};

use crate::fuse::BinOp;

/// Lanes per vector chunk: wide enough for two 4-lane AVX2 `f64` vectors
/// (or one AVX-512 vector), small enough to live in registers.
pub const LANE_WIDTH: usize = 8;

/// Which evaluator core an [`crate::Engine`]'s sweeps dispatch through.
/// Selected per engine by [`crate::Engine::with_kernel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelKind {
    /// Reference scalar loops (the engine default).
    #[default]
    Scalar,
    /// Fused superinstruction tape over the [`KernelSet`] row kernels
    /// (the serving pool's core).
    Fused,
}

impl KernelKind {
    /// Every kernel kind, reference first.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Fused];

    /// The CLI name (`--kernel scalar|fused`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Fused => "fused",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<KernelKind> {
        KernelKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Row-wise evaluation kernels over the SoA register file.
///
/// A "row" is one register's `n` contiguous lanes; arguments `d`/`a`/`b`
/// are pre-multiplied row base offsets into `regs` (`register index ×
/// chunk`). Rows may alias — accumulator chains write their destination
/// row while reading it — so implementations must read operands before
/// writing `d` within a lane.
///
/// The defaulted methods are the scalar reference semantics; vectorized
/// overrides must stay bit-identical to them (including [`Flags`]
/// effects, reported through [`Arith::merge_flags`]). See the [module
/// docs](crate::kernels) for the per-arithmetic table.
pub trait KernelSet: Arith {
    /// `regs[d..][l] = op(regs[a..][l], regs[b..][l])` for `n` lanes.
    fn bin_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Self::Value],
        d: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        scalar_bin_rows(self, op, regs, d, a, b, n);
    }

    /// `regs[d..][l] = op(regs[acc..][l], regs[a..][l] * regs[b..][l])`
    /// for `n` lanes — the [`crate::FusedInstr::MulAcc`] superinstruction.
    /// The multiply and the outer op are two separate roundings.
    fn mul_acc_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Self::Value],
        d: usize,
        acc: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        scalar_mul_acc_rows(self, op, regs, d, acc, a, b, n);
    }

    /// `regs[d..][l] = fold(op, regs[first..][l], rest rows)` for `n`
    /// lanes — the [`crate::FusedInstr::Reduce`] superinstruction. `rest`
    /// holds register indices; `chunk` converts them to row offsets. The
    /// fold is strictly left to right.
    fn reduce_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Self::Value],
        chunk: usize,
        d: usize,
        first: usize,
        rest: &[u32],
        n: usize,
    ) {
        scalar_reduce_rows(self, op, regs, chunk, d, first, rest, n);
    }
}

/// One scalar application of `op` through the context — the definition
/// every kernel must reproduce per lane.
#[inline]
pub(crate) fn apply_op<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    a: &A::Value,
    b: &A::Value,
) -> A::Value {
    match op {
        BinOp::Add => ctx.add(a, b),
        BinOp::Mul => ctx.mul(a, b),
        BinOp::Max => ctx.max(a, b),
        BinOp::MinNz => min_nz(ctx, a, b),
    }
}

/// Min over non-zero operands, zero only if both are zero — the binary
/// fold step of the min-value-analysis sum (paper §3.1.4). Matches the
/// scalar evaluator's skip-zero fold bit for bit.
#[inline]
pub(crate) fn min_nz<A: Arith + ?Sized>(ctx: &mut A, a: &A::Value, b: &A::Value) -> A::Value {
    if ctx.to_f64(a) == 0.0 {
        b.clone()
    } else if ctx.to_f64(b) == 0.0 {
        a.clone()
    } else {
        ctx.min(a, b)
    }
}

/// The scalar reference loop behind [`KernelSet::bin_rows`] (and the
/// engine's scalar core). The op is matched once per row, not per lane.
pub(crate) fn scalar_bin_rows<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    regs: &mut [A::Value],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
) {
    let mut each = |f: fn(&mut A, &A::Value, &A::Value) -> A::Value| {
        for l in 0..n {
            let v = f(ctx, &regs[a + l], &regs[b + l]);
            regs[d + l] = v;
        }
    };
    match op {
        BinOp::Add => each(A::add),
        BinOp::Mul => each(A::mul),
        BinOp::Max => each(A::max),
        BinOp::MinNz => each(min_nz),
    }
}

/// The scalar reference loop behind [`KernelSet::mul_acc_rows`].
pub(crate) fn scalar_mul_acc_rows<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    regs: &mut [A::Value],
    d: usize,
    acc: usize,
    a: usize,
    b: usize,
    n: usize,
) {
    for l in 0..n {
        let p = ctx.mul(&regs[a + l], &regs[b + l]);
        let v = apply_op(ctx, op, &regs[acc + l], &p);
        regs[d + l] = v;
    }
}

/// The scalar reference loop behind [`KernelSet::reduce_rows`].
pub(crate) fn scalar_reduce_rows<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    regs: &mut [A::Value],
    chunk: usize,
    d: usize,
    first: usize,
    rest: &[u32],
    n: usize,
) {
    for l in 0..n {
        let mut acc = regs[first + l].clone();
        for &r in rest {
            let v = apply_op(ctx, op, &acc, &regs[r as usize * chunk + l]);
            acc = v;
        }
        regs[d + l] = acc;
    }
}

// ---------------------------------------------------------------------------
// f64: chunked vector kernels.
// ---------------------------------------------------------------------------

/// One scalar `f64` op — the per-lane function the chunked loops repeat.
#[inline(always)]
fn f64_op(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Mul => x * y,
        BinOp::Max => x.max(y),
        // Matches `min_nz` under `F64Arith` (`to_f64` is the identity).
        BinOp::MinNz => {
            if x == 0.0 {
                y
            } else if y == 0.0 {
                x
            } else {
                x.min(y)
            }
        }
    }
}

/// Dispatches `op` once into a monomorphic expansion of `$body`, with
/// `$f` bound to the op's closure. Hoisting the match out of the lane
/// loops is what lets each loop body vectorize: matched per lane, the
/// compiler keeps a branch in the hot path and gives up on the chunked
/// form. (A macro rather than a higher-order function: a `fn` pointer
/// argument would put an indirect call back into the loop.)
macro_rules! f64_dispatch {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinOp::Add => {
                let $f = |x: f64, y: f64| x + y;
                $body
            }
            BinOp::Mul => {
                let $f = |x: f64, y: f64| x * y;
                $body
            }
            BinOp::Max => {
                let $f = f64::max;
                $body
            }
            BinOp::MinNz => {
                let $f = |x: f64, y: f64| f64_op(BinOp::MinNz, x, y);
                $body
            }
        }
    };
}

/// `regs[d..][l] = f(regs[a..][l], regs[b..][l])` in `LANE_WIDTH` chunks
/// with a scalar tail. The local arrays decouple the loads from the
/// store, so the chunk body vectorizes without runtime alias checks
/// (rows are either identical or disjoint, and lanes are independent).
#[inline(always)]
fn f64_map2(
    regs: &mut [f64],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
    f: impl Fn(f64, f64) -> f64 + Copy,
) {
    const W: usize = LANE_WIDTH;
    let mut l = 0;
    while l + W <= n {
        let mut xa = [0.0; W];
        let mut xb = [0.0; W];
        xa.copy_from_slice(&regs[a + l..a + l + W]);
        xb.copy_from_slice(&regs[b + l..b + l + W]);
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = f(xa[i], xb[i]);
        }
        regs[d + l..d + l + W].copy_from_slice(&out);
        l += W;
    }
    while l < n {
        regs[d + l] = f(regs[a + l], regs[b + l]);
        l += 1;
    }
}

impl KernelSet for F64Arith {
    fn bin_rows(&mut self, op: BinOp, regs: &mut [f64], d: usize, a: usize, b: usize, n: usize) {
        f64_dispatch!(op, f => f64_map2(regs, d, a, b, n, f));
    }

    fn mul_acc_rows(
        &mut self,
        op: BinOp,
        regs: &mut [f64],
        d: usize,
        acc: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        f64_dispatch!(op, f => {
            const W: usize = LANE_WIDTH;
            let mut l = 0;
            while l + W <= n {
                let mut xacc = [0.0; W];
                let mut xa = [0.0; W];
                let mut xb = [0.0; W];
                xacc.copy_from_slice(&regs[acc + l..acc + l + W]);
                xa.copy_from_slice(&regs[a + l..a + l + W]);
                xb.copy_from_slice(&regs[b + l..b + l + W]);
                let mut out = [0.0; W];
                for i in 0..W {
                    // Two roundings on purpose: contracting into an FMA
                    // would change bits versus the unfused stream.
                    let p = xa[i] * xb[i];
                    out[i] = f(xacc[i], p);
                }
                regs[d + l..d + l + W].copy_from_slice(&out);
                l += W;
            }
            while l < n {
                let p = regs[a + l] * regs[b + l];
                regs[d + l] = f(regs[acc + l], p);
                l += 1;
            }
        });
    }

    fn reduce_rows(
        &mut self,
        op: BinOp,
        regs: &mut [f64],
        chunk: usize,
        d: usize,
        first: usize,
        rest: &[u32],
        n: usize,
    ) {
        f64_dispatch!(op, f => {
            const W: usize = LANE_WIDTH;
            let mut l = 0;
            while l + W <= n {
                // The fold partials live in `acc` — vector registers —
                // for the whole operand list: one destination write per
                // chunk instead of one per chain step.
                let mut acc = [0.0; W];
                acc.copy_from_slice(&regs[first + l..first + l + W]);
                for &r in rest {
                    let ro = r as usize * chunk + l;
                    let mut x = [0.0; W];
                    x.copy_from_slice(&regs[ro..ro + W]);
                    for i in 0..W {
                        acc[i] = f(acc[i], x[i]);
                    }
                }
                regs[d + l..d + l + W].copy_from_slice(&acc);
                l += W;
            }
            while l < n {
                let mut acc = regs[first + l];
                for &r in rest {
                    acc = f(acc, regs[r as usize * chunk + l]);
                }
                regs[d + l] = acc;
                l += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// fixed:I.F: native-width fast path.
// ---------------------------------------------------------------------------

/// Precomputed constants for the narrow-format fixed-point fast path:
/// formats with `I+F <= 63` whose exact products fit a native `u128`
/// multiply, skipping the `U256` widening path and the per-op format
/// checks while reproducing [`problp_num::Fixed`]'s rounding, saturation
/// and flag rules exactly.
#[derive(Clone, Copy)]
struct FixedFastPath {
    format: problp_num::FixedFormat,
    max_raw: u128,
    frac: u32,
    low_mask: u128,
    half: u128,
    truncate: bool,
}

impl FixedFastPath {
    fn new(ctx: &FixedArith) -> Option<Self> {
        let format = ctx.format();
        // `raw <= max_raw < 2^63` keeps `a*b < 2^126` (and `+half < 2^127`)
        // exactly representable in u128 — wider formats keep the scalar path.
        if format.total_bits() > 63 {
            return None;
        }
        let frac = format.frac_bits();
        Some(FixedFastPath {
            format,
            max_raw: format.max_raw(),
            frac,
            low_mask: if frac == 0 { 0 } else { (1u128 << frac) - 1 },
            half: if frac == 0 { 0 } else { 1u128 << (frac - 1) },
            truncate: ctx.rounding() == FixedRounding::Truncate,
        })
    }

    /// Rebuilds a lane value from its raw encoding. Every fast-path
    /// result saturates to `max_raw`, so the width check cannot fail.
    #[inline(always)]
    fn lane(&self, raw: u128) -> Fixed {
        Fixed::from_raw(raw, self.format).expect("fast-path results stay in format")
    }

    /// `Fixed::add`: exact sum, saturating with `overflow` past the format.
    #[inline(always)]
    fn add(&self, x: u128, y: u128, flags: &mut Flags) -> u128 {
        let sum = x + y;
        if sum > self.max_raw {
            flags.overflow = true;
            self.max_raw
        } else {
            sum
        }
    }

    /// `Fixed::mul_with`: full product, `inexact` on any dropped low bits,
    /// half-up or truncating shift, saturating with `overflow`.
    #[inline(always)]
    fn mul(&self, x: u128, y: u128, flags: &mut Flags) -> u128 {
        // Both operands are below 2^63: one 64x64 -> 128-bit multiply.
        let p = u128::from(x as u64) * u128::from(y as u64);
        flags.inexact |= p & self.low_mask != 0;
        let rounded = if self.frac == 0 {
            p
        } else if self.truncate {
            p >> self.frac
        } else {
            (p + self.half) >> self.frac
        };
        if rounded > self.max_raw {
            flags.overflow = true;
            self.max_raw
        } else {
            rounded
        }
    }

    /// One raw-encoding op, matching [`apply_op`] on `FixedArith` bit for
    /// bit (`raw == 0` iff the value converts to `0.0`).
    #[inline(always)]
    fn op(&self, op: BinOp, x: u128, y: u128, flags: &mut Flags) -> u128 {
        match op {
            BinOp::Add => self.add(x, y, flags),
            BinOp::Mul => self.mul(x, y, flags),
            BinOp::Max => x.max(y),
            BinOp::MinNz => {
                if x == 0 {
                    y
                } else if y == 0 {
                    x
                } else {
                    x.min(y)
                }
            }
        }
    }
}

impl KernelSet for FixedArith {
    fn bin_rows(&mut self, op: BinOp, regs: &mut [Fixed], d: usize, a: usize, b: usize, n: usize) {
        let Some(fast) = FixedFastPath::new(self) else {
            return scalar_bin_rows(self, op, regs, d, a, b, n);
        };
        let mut flags = Flags::new();
        for l in 0..n {
            let v = fast.op(op, regs[a + l].raw(), regs[b + l].raw(), &mut flags);
            regs[d + l] = fast.lane(v);
        }
        self.merge_flags(flags);
    }

    fn mul_acc_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Fixed],
        d: usize,
        acc: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        let Some(fast) = FixedFastPath::new(self) else {
            return scalar_mul_acc_rows(self, op, regs, d, acc, a, b, n);
        };
        let mut flags = Flags::new();
        for l in 0..n {
            let p = fast.mul(regs[a + l].raw(), regs[b + l].raw(), &mut flags);
            let v = fast.op(op, regs[acc + l].raw(), p, &mut flags);
            regs[d + l] = fast.lane(v);
        }
        self.merge_flags(flags);
    }

    fn reduce_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Fixed],
        chunk: usize,
        d: usize,
        first: usize,
        rest: &[u32],
        n: usize,
    ) {
        let Some(fast) = FixedFastPath::new(self) else {
            return scalar_reduce_rows(self, op, regs, chunk, d, first, rest, n);
        };
        let mut flags = Flags::new();
        // Fold `LANE_WIDTH` lanes per pass over the operand rows, as the
        // f64 kernel does: each lane still folds left to right, but the
        // lanes' dependency chains interleave instead of running serially.
        let mut l = 0;
        while l < n {
            let w = LANE_WIDTH.min(n - l);
            let mut acc = [0u128; LANE_WIDTH];
            for (i, a) in acc[..w].iter_mut().enumerate() {
                *a = regs[first + l + i].raw();
            }
            for &r in rest {
                let ro = r as usize * chunk + l;
                for (i, a) in acc[..w].iter_mut().enumerate() {
                    *a = fast.op(op, *a, regs[ro + i].raw(), &mut flags);
                }
            }
            for (i, &a) in acc[..w].iter().enumerate() {
                regs[d + l + i] = fast.lane(a);
            }
            l += w;
        }
        self.merge_flags(flags);
    }
}

// float:E.M — software-emulated rounding stays on the scalar reference
// loops (the defaulted methods); the fused kernel then degrades to the
// fused dispatch win only, still bit-identical by construction.
impl KernelSet for FloatArith {}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_num::FixedFormat;

    #[test]
    fn kernel_kind_names_round_trip() {
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::parse(k.name()), Some(k));
        }
        assert_eq!(KernelKind::parse("turbo"), None);
    }

    /// The fast path replicates `Fixed::mul_with` exactly: rounding,
    /// inexact bits and saturation, in both rounding modes.
    #[test]
    fn fixed_fast_path_matches_fixed_ops_bit_for_bit() {
        for rounding in [FixedRounding::HalfUp, FixedRounding::Truncate] {
            let format = FixedFormat::new(2, 6).unwrap();
            let ctx = FixedArith::with_rounding(format, rounding);
            let fast = FixedFastPath::new(&ctx).unwrap();
            for x in 0..=format.max_raw() {
                for y in (0..=format.max_raw()).step_by(7) {
                    let fx = Fixed::from_raw(x, format).unwrap();
                    let fy = Fixed::from_raw(y, format).unwrap();
                    let mut want_flags = Flags::new();
                    let want = fx.mul_with(&fy, rounding, &mut want_flags);
                    let mut got_flags = Flags::new();
                    let got = fast.mul(x, y, &mut got_flags);
                    assert_eq!(want.raw(), got, "mul {x}x{y} {rounding:?}");
                    assert_eq!(want_flags, got_flags, "mul flags {x}x{y}");

                    let mut want_flags = Flags::new();
                    let want = fx.add(&fy, &mut want_flags);
                    let mut got_flags = Flags::new();
                    let got = fast.add(x, y, &mut got_flags);
                    assert_eq!(want.raw(), got, "add {x}+{y}");
                    assert_eq!(want_flags, got_flags, "add flags {x}+{y}");
                }
            }
        }
    }

    #[test]
    fn wide_formats_skip_the_fast_path() {
        let ctx = FixedArith::new(FixedFormat::new(2, 62).unwrap());
        assert!(FixedFastPath::new(&ctx).is_none());
        let ctx = FixedArith::new(FixedFormat::new(1, 62).unwrap());
        assert!(FixedFastPath::new(&ctx).is_some());
    }
}
