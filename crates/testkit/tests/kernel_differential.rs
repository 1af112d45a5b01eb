//! Differential property tests for the fast tensor kernels.
//!
//! The packed/register-blocked matmul kernels and the im2col conv1d lowering
//! in `octs-tensor` must agree with the retained naive reference loops
//! (`ops::matmul::naive`, `ops::conv::direct`) within relative tolerance on
//! seeded random shapes — including the degenerate ones (empty, 1×N,
//! over-reaching dilation) where a blocking/panel bug would hide.
//!
//! The small-shape conv1d kernels (`ops::conv::small`) and the stride-walking
//! `Tensor::permuted` promise more: the exact bits of their references, so
//! those comparisons use `to_bits`.
//!
//! Shapes and data are drawn from `octs_testkit::Gen`, so any failure
//! replays from the printed seed alone.

use octs_tensor::ops::{conv, matmul, shapeops};
use octs_tensor::Tensor;
use octs_testkit::Gen;

const SEEDS: u64 = 25;

/// Relative-tolerance comparison: the fast path may associate partial sums
/// differently (register tiles, im2col), so exact equality is not required.
fn assert_close(seed: u64, what: &str, fast: &[f32], reference: &[f32]) {
    assert_eq!(fast.len(), reference.len(), "seed {seed}: {what} length");
    for (i, (&f, &r)) in fast.iter().zip(reference).enumerate() {
        let tol = 1e-4 * r.abs().max(1.0);
        assert!((f - r).abs() <= tol, "seed {seed}: {what}[{i}] fast {f} vs naive {r} (tol {tol})");
    }
}

fn fill(gen: &mut Gen, n: usize) -> Vec<f32> {
    (0..n).map(|_| gen.f32_in(-2.0, 2.0)).collect()
}

/// Random shapes, biased to cross the fast-path threshold, plus pinned edge
/// shapes: empty output, empty reduction, single-row and single-column.
fn matmul_shapes(gen: &mut Gen) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 4, 4),   // empty output rows
        (4, 0, 4),   // empty reduction: out must stay untouched (+= semantics)
        (4, 4, 0),   // empty output cols
        (1, 96, 64), // 1×N against the MR row blocking
        (64, 96, 1), // N×1 against the NR column panels
        (1, 1, 1),
    ];
    for _ in 0..6 {
        shapes.push((gen.usize_in(1, 70), gen.usize_in(1, 70), gen.usize_in(1, 70)));
    }
    shapes
}

#[test]
fn matmul_fast_matches_naive_reference() {
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(seed);
        for (m, k, n) in matmul_shapes(&mut gen) {
            let a = fill(&mut gen, m * k);
            let b = fill(&mut gen, k * n);

            // out += a·b, over a nonzero starting accumulator.
            let init = fill(&mut gen, m * n);
            let mut fast = init.clone();
            let mut slow = init.clone();
            matmul::matmul_kernel(&a, &b, &mut fast, m, k, n);
            matmul::naive::matmul_kernel(&a, &b, &mut slow, m, k, n);
            assert_close(seed, &format!("a_b {m}x{k}x{n}"), &fast, &slow);

            // out += aᵀ·b with a stored k×m.
            let at = fill(&mut gen, k * m);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![0.0; m * n];
            matmul::matmul_at_b(&at, &b, &mut fast, k, m, n);
            matmul::naive::matmul_at_b(&at, &b, &mut slow, k, m, n);
            assert_close(seed, &format!("at_b {m}x{k}x{n}"), &fast, &slow);

            // out += a·bᵀ with b stored n_out×k_inner (here: k×?? — reuse
            // dims: a is m×k ("n" of the kernel), b is n×k, out m×n).
            let abt_a = fill(&mut gen, m * k);
            let abt_b = fill(&mut gen, n * k);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![0.0; m * n];
            matmul::matmul_a_bt(&abt_a, &abt_b, &mut fast, m, k, n);
            matmul::naive::matmul_a_bt(&abt_a, &abt_b, &mut slow, m, k, n);
            assert_close(seed, &format!("a_bt {m}x{k}x{n}"), &fast, &slow);
        }
    }
}

#[test]
fn conv1d_fast_matches_direct_reference() {
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(1_000_000 + seed);
        // Random shapes around the im2col threshold, plus edge cases: K=1,
        // dilation pushing the reach past the sequence length, and C_in=1.
        let mut shapes = vec![
            (1, 1, 1, 8, 1, 1),     // identity-ish
            (2, 1, 24, 40, 3, 16),  // reach 32: taps straddle the left edge
            (1, 12, 12, 48, 2, 24), // reach 24, half the taps out of range
            (1, 4, 40, 10, 3, 8),   // reach 16 >= l: whole taps out of range
        ];
        for _ in 0..4 {
            shapes.push((
                gen.usize_in(1, 3),
                gen.usize_in(1, 12),
                gen.usize_in(1, 20),
                gen.usize_in(4, 56),
                gen.usize_in(1, 4),
                gen.usize_in(1, 6),
            ));
        }
        for (b, c_in, c_out, l, k, d) in shapes {
            let x = fill(&mut gen, b * c_in * l);
            let w = fill(&mut gen, c_out * c_in * k);
            let bias = fill(&mut gen, c_out);
            let what = format!("conv b={b} ci={c_in} co={c_out} l={l} k={k} d={d}");

            let mut fast = vec![0.0; b * c_out * l];
            let mut slow = vec![0.0; b * c_out * l];
            conv::conv1d_forward(&x, &w, Some(&bias), &mut fast, b, c_in, c_out, l, k, d);
            conv::direct::conv1d_forward(&x, &w, Some(&bias), &mut slow, b, c_in, c_out, l, k, d);
            assert_close(seed, &format!("{what} fwd"), &fast, &slow);

            let dout = fill(&mut gen, b * c_out * l);
            let mut dxf = vec![0.0; x.len()];
            let mut dwf = vec![0.0; w.len()];
            let mut dbf = vec![0.0; c_out];
            conv::conv1d_backward(
                &x,
                &w,
                &dout,
                &mut dxf,
                &mut dwf,
                Some(&mut dbf),
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            let mut dxs = vec![0.0; x.len()];
            let mut dws = vec![0.0; w.len()];
            let mut dbs = vec![0.0; c_out];
            conv::direct::conv1d_backward(
                &x,
                &w,
                &dout,
                &mut dxs,
                &mut dws,
                Some(&mut dbs),
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            assert_close(seed, &format!("{what} dx"), &dxf, &dxs);
            assert_close(seed, &format!("{what} dw"), &dwf, &dws);
            assert_close(seed, &format!("{what} dbias"), &dbf, &dbs);
        }
    }
}

fn assert_same_bits(seed: u64, what: &str, got: &[f32], reference: &[f32]) {
    assert_eq!(got.len(), reference.len(), "seed {seed}: {what} length");
    for (i, (&g, &r)) in got.iter().zip(reference).enumerate() {
        assert_eq!(g.to_bits(), r.to_bits(), "seed {seed}: {what}[{i}] got {g} vs reference {r}");
    }
}

/// A starting accumulator with a `-0.0` every few elements: adding a
/// `+0.0` partial sum flips those, so a kernel that skips an empty tap's
/// `+= 0.0` (or reorders it) shows up in the bits.
fn accumulator(gen: &mut Gen, n: usize) -> Vec<f32> {
    (0..n).map(|i| if i % 5 == 0 { -0.0 } else { gen.f32_in(-2.0, 2.0) }).collect()
}

/// `conv::small` must reproduce `conv::direct` bit for bit — forward, `dx`,
/// `dw` and `dbias` — on seeded shapes below the im2col threshold, including
/// K=1, dilation 2, taps whose shift reaches past L, no bias, and gradients
/// accumulating into non-zero buffers.
#[test]
fn conv1d_small_path_is_bit_identical_to_direct() {
    const DIRECT_MAX_WORK: usize = 4096;
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(2_000_000 + seed);
        let mut shapes = vec![
            (20, 16, 16, 4, 2, 1), // gdcc at the workloads' shape
            (20, 16, 16, 4, 2, 2), // ... dilation 2
            (3, 5, 7, 9, 1, 1),    // K=1
            (2, 3, 4, 6, 3, 4),    // reach 8 >= L: the first taps never land
            (1, 2, 3, 2, 2, 5),    // shift >= L for every tap but the last
            (1, 1, 1, 1, 1, 1),
        ];
        for _ in 0..6 {
            let (c_in, c_out, k) = (gen.usize_in(1, 16), gen.usize_in(1, 16), gen.usize_in(1, 3));
            let l_max = ((DIRECT_MAX_WORK - 1) / (c_in * c_out * k)).clamp(1, 24);
            let l = gen.usize_in(1, l_max);
            shapes.push((gen.usize_in(1, 6), c_in, c_out, l, k, gen.usize_in(1, 3)));
        }
        for (b, c_in, c_out, l, k, d) in shapes {
            assert!(c_out * c_in * k * l < DIRECT_MAX_WORK, "shape must take the small path");
            let x = fill(&mut gen, b * c_in * l);
            let w = fill(&mut gen, c_out * c_in * k);
            let with_bias = gen.flip();
            let bias = with_bias.then(|| fill(&mut gen, c_out));
            let what =
                format!("conv b={b} ci={c_in} co={c_out} l={l} k={k} d={d} bias={with_bias}");

            let init = accumulator(&mut gen, b * c_out * l);
            let mut got = init.clone();
            let mut want = init;
            conv::small::conv1d_forward(&x, &w, bias.as_deref(), &mut got, b, c_in, c_out, l, k, d);
            conv::direct::conv1d_forward(
                &x,
                &w,
                bias.as_deref(),
                &mut want,
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            assert_same_bits(seed, &format!("{what} fwd"), &got, &want);

            let dout = fill(&mut gen, b * c_out * l);
            let dx0 = accumulator(&mut gen, x.len());
            let dw0 = accumulator(&mut gen, w.len());
            let db0 = accumulator(&mut gen, c_out);
            let (mut dxg, mut dwg, mut dbg) = (dx0.clone(), dw0.clone(), db0.clone());
            let (mut dxw, mut dww, mut dbw) = (dx0, dw0, db0);
            conv::small::conv1d_backward(
                &x,
                &w,
                &dout,
                &mut dxg,
                &mut dwg,
                with_bias.then_some(&mut dbg[..]),
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            conv::direct::conv1d_backward(
                &x,
                &w,
                &dout,
                &mut dxw,
                &mut dww,
                with_bias.then_some(&mut dbw[..]),
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            assert_same_bits(seed, &format!("{what} dx"), &dxg, &dxw);
            assert_same_bits(seed, &format!("{what} dw"), &dwg, &dww);
            assert_same_bits(seed, &format!("{what} dbias"), &dbg, &dbw);
        }
    }
}

/// `Tensor::permuted` must reproduce the odometer exactly — shape and bits —
/// over ranks 1–5: generated shapes (zero-length dimensions included) and
/// axis orders, plus the ST-block layouts and the identity pinned.
#[test]
fn permute_matches_odometer_reference() {
    let pinned: &[(&[usize], &[usize])] = &[
        (&[4, 16, 5, 4], &[0, 2, 1, 3]), // the ST-block temporal layout
        (&[4, 16, 5, 4], &[0, 3, 2, 1]), // the ST-block spatial layout
        (&[3, 0, 2], &[2, 0, 1]),        // zero-length dim
        (&[2, 3, 4], &[0, 1, 2]),        // identity
        (&[7], &[0]),
    ];
    let mut cases: Vec<(Vec<usize>, Vec<usize>)> =
        pinned.iter().map(|(s, a)| (s.to_vec(), a.to_vec())).collect();
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(3_000_000 + seed);
        for rank in 1..=5 {
            let shape: Vec<usize> = (0..rank).map(|_| gen.usize_in(0, 5)).collect();
            let axes = gen.shuffled((0..rank).collect());
            cases.push((shape, axes));
        }
    }
    for (case, (shape, axes)) in cases.iter().enumerate() {
        let mut gen = Gen::from_seed(4_000_000 + case as u64);
        let t = Tensor::new(shape.clone(), fill(&mut gen, shape.iter().product()));
        let got = t.permuted(axes);
        let want = shapeops::permute_odometer(&t, axes);
        let what = format!("permute {shape:?} by {axes:?}");
        assert_eq!(got.shape(), want.shape(), "case {case}: {what}");
        assert_same_bits(case as u64, &what, got.data(), want.data());
    }
}

/// The row-band parallel split must be byte-identical for any worker count:
/// band boundaries derive from the shape alone and every output element is
/// reduced sequentially, so `RAYON_NUM_THREADS` cannot move a single bit.
/// The shape is chosen to actually engage the parallel path (`m·k·n` above
/// the split threshold, more rows than one band).
#[test]
fn matmul_byte_identical_across_thread_counts() {
    let (m, k, n) = (256, 256, 256);
    let mut gen = Gen::from_seed(42);
    let a = fill(&mut gen, m * k);
    let b = fill(&mut gen, k * n);

    // The vendored rayon reads RAYON_NUM_THREADS per parallel call.
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let mut out = vec![0.0f32; m * n];
        matmul::matmul_kernel(&a, &b, &mut out, m, k, n);
        runs.push((threads, out));
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let first = bits(&runs[0].1);
    for (threads, out) in &runs[1..] {
        assert_eq!(first, bits(out), "matmul moved bits with RAYON_NUM_THREADS={threads}");
    }
}

/// The `set_fast_enabled` switch (used by `kernel_bench` for before/after
/// columns) must actually route to the naive kernels and back.
#[test]
fn fast_toggle_switches_paths() {
    let mut gen = Gen::from_seed(7);
    let (m, k, n) = (48, 48, 48);
    let a = fill(&mut gen, m * k);
    let b = fill(&mut gen, k * n);
    let mut with_fast = vec![0.0; m * n];
    matmul::matmul_kernel(&a, &b, &mut with_fast, m, k, n);

    matmul::set_fast_enabled(false);
    assert!(!matmul::fast_enabled());
    let mut with_naive = vec![0.0; m * n];
    matmul::matmul_kernel(&a, &b, &mut with_naive, m, k, n);
    matmul::set_fast_enabled(true);
    assert!(matmul::fast_enabled());

    let mut reference = vec![0.0; m * n];
    matmul::naive::matmul_kernel(&a, &b, &mut reference, m, k, n);
    assert_eq!(with_naive, reference, "disabled toggle must be exactly the naive kernel");
    assert_close(7, "toggle", &with_fast, &reference);
}
