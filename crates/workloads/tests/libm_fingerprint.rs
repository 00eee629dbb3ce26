//! Fingerprints the platform libm the generators call.
//!
//! The generators draw every stream through `f64::ln`, `sin`, `cos`, `exp`
//! and `powf`, which Rust forwards to the platform C library: `traces.rs`
//! (exponential gaps, the wiki envelope, the WITS spikes and their reach),
//! `catalog.rs` (the Box–Muller draw) and `azure.rs` (the Zipf weights).
//! A libm that rounds one of them differently moves arrivals and exec
//! times, so every stream digest, golden and run digest would fail at once
//! for a reason none of them names. This test pins each function's bit
//! patterns over fixed inputs in the ranges those call sites use, and says
//! which one differs.

/// FNV-1a 64 over the little-endian bit patterns of `values`.
fn fnv1a64(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn host_libm_matches_the_pinned_fingerprint() {
    let tau = std::f64::consts::TAU;
    // uniform draws in [ε, 1) (gaps, Box–Muller) and spike heights in [1, 6)
    let ln_inputs = (0..65_536)
        .map(|k| (f64::from(k) + 0.5) / 65_536.0)
        .chain([f64::EPSILON])
        .chain((0..20_480).map(|k| 1.0 + f64::from(k) / 4096.0));
    // envelope phases: a multi-day wiki horizon and its 7.3× ripple
    let sin_inputs = (0..150_000).map(|k| f64::from(k) * 0.0137);
    // the Box–Muller angle, 2π·u for u in [0, 1)
    let cos_inputs = (0..65_536).map(|k| tau * (f64::from(k) / 65_536.0));
    // −d² for spike distances d out to past the reach (e^−40)
    let exp_inputs = (0..8192).map(|k| {
        let d = f64::from(k) / 1024.0;
        -d * d
    });
    // Zipf weights (rank + 1)^−s over the CLI's and the tests' exponents
    let powf_inputs = (1..=4000).flat_map(|r| [0.7, 1.1, 1.5, 2.0].map(|s| (f64::from(r), -s)));

    let measured = [
        ("ln", fnv1a64(ln_inputs.map(f64::ln))),
        ("sin", fnv1a64(sin_inputs.map(f64::sin))),
        ("cos", fnv1a64(cos_inputs.map(f64::cos))),
        ("exp", fnv1a64(exp_inputs.map(f64::exp))),
        ("powf", fnv1a64(powf_inputs.map(|(b, e)| b.powf(e)))),
    ];
    let pinned = [
        ("ln", 0xbb91_84bb_2ac6_a1fd),
        ("sin", 0x9f7d_f8ee_bbaa_5450),
        ("cos", 0x65eb_d701_94e5_c1d3),
        ("exp", 0x5d78_5e3b_a792_5977),
        ("powf", 0xd8d1_d5ca_cd8d_466e),
    ];
    let differing: Vec<&str> = measured
        .iter()
        .zip(&pinned)
        .filter(|(m, p)| m.1 != p.1)
        .map(|(m, _)| m.0)
        .collect();
    assert!(
        differing.is_empty(),
        "this host's libm computes {differing:?} differently from the libm the \
         repository's numbers were recorded with (measured {measured:x?}); every \
         stream digest, golden and run digest depends on the host's libm, so \
         those failures follow from this one, not from a code change"
    );
}
