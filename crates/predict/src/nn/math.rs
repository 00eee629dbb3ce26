//! The predictor's own `exp`, `sigmoid` and `tanh`.
//!
//! Rust's `f64::exp` and `f64::tanh` call the platform C library, so a
//! model trained with them is bit-reproducible only where that libm
//! agrees with the one the pins were recorded on, and each call is an
//! opaque function call the gate loops cannot vectorize. These forms are
//! pure Rust and branch-free: range handling is done with selects, there
//! are no table lookups and no `mul_add`, so a loop over a slice
//! vectorizes under `target-cpu=native` and every lane computes the same
//! IEEE-754 sequence as the scalar form. The slice forms are therefore
//! bit-identical to mapping the scalar forms, and the results are the
//! same on every host.
//!
//! Accuracy against glibc's libm over a dense sweep of `|x| ≤ 40` (tiny
//! arguments below 2⁻²⁰ included), asserted by the tests:
//!
//! | function | bound from libm | largest seen |
//! |---|---:|---:|
//! | [`exp`] | 2 ULP | 1 ULP |
//! | [`sigmoid`] | 4 ULP | 2 ULP |
//! | [`tanh`] | 4 ULP | 3 ULP |

/// log₂ e.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High part of ln 2: its low 21 significand bits are zero, so `k·LN2_HI`
/// is exact for every `|k| < 2¹¹` the reduction produces.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1.5·2⁵²: adding it rounds a value below 2⁵¹ in magnitude to the
/// nearest integer, which then sits in the low significand bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// Below this `exp` rounds to 0, above [`EXP_HI`] to +∞.
const EXP_LO: f64 = -746.0;
/// See [`EXP_LO`].
const EXP_HI: f64 = 710.0;
/// `tanh(x)` rounds to ±1 for every `|x|` at or above this.
const TANH_SAT: f64 = 20.0;

/// `1/n!` for n = 2..=13: the Taylor series of `(e^r − 1 − r)/r²`, whose
/// remainder stays below 6e-18 relative on `|r| ≤ 0.347`.
const TAYLOR: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// Splits `x` into `k·ln 2 + r` with `k` an integer and
/// `|r| ≤ ln 2 / 2 + ε`. Returns `e^r − 1` and the bits of `SHIFT + k`,
/// from which `k` is recovered without a float-to-int conversion.
#[inline(always)]
fn reduce(x: f64) -> (f64, u64) {
    let t = x * LOG2E + SHIFT;
    let k = t - SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // e^r − 1 − r = r²·q(r), by Horner's rule from the top coefficient
    let mut q = TAYLOR[TAYLOR.len() - 1];
    for &c in TAYLOR[..TAYLOR.len() - 1].iter().rev() {
        q = c + r * q;
    }
    (r + r * r * q, t.to_bits())
}

/// `e^x`, within 2 ULP of libm.
///
/// `exp(+∞) = +∞`, `exp(−∞) = 0` and NaN propagates; results in the
/// subnormal range are rounded once. No intermediate overflows.
#[inline]
pub fn exp(x: f64) -> f64 {
    // selects, not branches; a NaN fails both comparisons and passes
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let (em1, t) = reduce(x);
    let p = 1.0 + em1;
    // 2^k as 2^(a−1023)·2^(b−1023) with a + b = k + 2046: both factors
    // are normal for every k in [−1077, 1025], so the first product is
    // exact and only the second can round (into the subnormal range) or
    // overflow (to +∞)
    let u = t.wrapping_sub(SHIFT.to_bits()).wrapping_add(2046);
    let a = u >> 1;
    let b = u - a;
    p * f64::from_bits(a << 52) * f64::from_bits(b << 52)
}

/// `e^y − 1` for `y` in `[−2·TANH_SAT, 0]` (or NaN): exact-form near 0,
/// so `tanh` does not cancel there.
#[inline(always)]
fn expm1_nonpositive(y: f64) -> f64 {
    let (em1, t) = reduce(y);
    // k ∈ [−58, 0]: 2^k is one normal factor
    let k_biased = t.wrapping_sub(SHIFT.to_bits()).wrapping_add(1023);
    let s = f64::from_bits(k_biased << 52);
    s * em1 + (s - 1.0)
}

/// The logistic sigmoid `1 / (1 + e^−z)`, within 4 ULP of the same
/// formula over libm's `exp`.
///
/// Evaluated as `1/(1 + e^−|z|)` or `e^−|z|/(1 + e^−|z|)` by the sign of
/// `z`, so `e^−|z| ≤ 1` never overflows. `σ(+∞) = 1`, `σ(−∞) = 0`, NaN
/// propagates.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    let e = exp(-z.abs());
    let num = if z >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// The hyperbolic tangent, within 4 ULP of libm.
///
/// `tanh(|x|) = −m/(2 + m)` with `m = expm1(−2|x|)`, which keeps full
/// relative accuracy near 0 (a `(1 − e)/(1 + e)` form loses about
/// `1e-16/|x|` there). The sign is copied from `x`, so `tanh(±0) = ±0`;
/// `tanh(±∞) = ±1`, NaN propagates.
#[inline]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    let a = if a > TANH_SAT { TANH_SAT } else { a };
    let m = expm1_nonpositive(-2.0 * a);
    (-m / (2.0 + m)).copysign(x)
}

/// [`exp`] over a slice, in place.
pub fn exp_slice(xs: &mut [f64]) {
    for x in xs {
        *x = exp(*x);
    }
}

/// [`sigmoid`] over a slice, in place.
pub fn sigmoid_slice(xs: &mut [f64]) {
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// [`tanh`] over a slice, in place.
pub fn tanh_slice(xs: &mut [f64]) {
    for x in xs {
        *x = tanh(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite values of
    /// the same sign (zeros of either sign count as equal).
    fn ulps(a: f64, b: f64) -> u64 {
        if a == b {
            return 0;
        }
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a:e} vs {b:e}");
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// The sweep: an even grid over `[−40, 40]`, plus a geometric one of
    /// both signs from 2⁻⁶⁰ to 40 (so `|x| < 2⁻²⁰` is covered densely).
    fn sweep() -> Vec<f64> {
        let mut xs: Vec<f64> = (-400_000..=400_000)
            .map(|i| i as f64 * 1e-4 + i as f64 * 1.3e-11)
            .collect();
        let mut g = 2f64.powi(-60);
        while g <= 40.0 {
            xs.push(g);
            xs.push(-g);
            g *= 1.0001;
        }
        xs
    }

    /// libm's forms: the references the bounds are measured from.
    #[allow(clippy::disallowed_methods)] // the libm reference the bounds are measured against
    fn libm_exp(x: f64) -> f64 {
        x.exp()
    }

    #[allow(clippy::disallowed_methods)] // the libm reference the bounds are measured against
    fn libm_tanh(x: f64) -> f64 {
        x.tanh()
    }

    /// The sigmoid the predictor used over libm's `exp`.
    fn libm_sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + libm_exp(-z))
        } else {
            let e = libm_exp(z);
            e / (1.0 + e)
        }
    }

    fn max_ulps(f: fn(f64) -> f64, reference: fn(f64) -> f64) -> (u64, f64) {
        sweep()
            .into_iter()
            .map(|x| (ulps(f(x), reference(x)), x))
            .max_by_key(|&(u, _)| u)
            .expect("a non-empty sweep")
    }

    #[test]
    fn exp_within_2_ulp_of_libm() {
        let (u, x) = max_ulps(exp, libm_exp);
        assert!(u <= 2, "exp({x:e}) is {u} ULP from libm");
    }

    #[test]
    fn sigmoid_within_4_ulp_of_libm() {
        let (u, x) = max_ulps(sigmoid, libm_sigmoid);
        assert!(u <= 4, "sigmoid({x:e}) is {u} ULP from libm");
    }

    #[test]
    fn tanh_within_4_ulp_of_libm() {
        let (u, x) = max_ulps(tanh, libm_tanh);
        assert!(u <= 4, "tanh({x:e}) is {u} ULP from libm");
    }

    #[test]
    fn edge_cases() {
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert!(tanh(f64::NAN).is_nan());
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY), 0.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(f64::NAN).is_nan());
        // overflow and underflow land where libm's do
        assert!(ulps(exp(709.7), libm_exp(709.7)) <= 2);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert!(ulps(exp(-708.5), libm_exp(-708.5)) <= 2);
        assert_eq!(exp(-745.0), libm_exp(-745.0));
        assert_eq!(exp(-746.0), 0.0);
    }

    /// No intermediate overflow for |x| ≤ 1000: every result is finite
    /// where the function is, and in range.
    #[test]
    fn no_intermediate_overflow() {
        for i in -10_000..=10_000 {
            let x = f64::from(i) * 0.1;
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
            let t = tanh(x);
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
            let e = exp(x);
            assert!(e >= 0.0 && (x > 709.8 || e.is_finite()), "exp({x}) = {e}");
        }
    }

    /// The slice forms are the scalar forms, lane for lane.
    #[test]
    fn slice_forms_match_scalar_forms_bit_for_bit() {
        let xs: Vec<f64> = (0..1001)
            .map(|i| (i as f64 - 500.0) * 0.071)
            .chain([0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0])
            .collect();
        for (slice, scalar) in [
            (exp_slice as fn(&mut [f64]), exp as fn(f64) -> f64),
            (sigmoid_slice, sigmoid),
            (tanh_slice, tanh),
        ] {
            let mut ys = xs.clone();
            slice(&mut ys);
            for (&x, &y) in xs.iter().zip(&ys) {
                assert_eq!(y.to_bits(), scalar(x).to_bits(), "at {x:e}");
            }
        }
    }
}
