//! Causal dilated 1-D convolution kernels and gradients.
//!
//! Layout convention: inputs are `[B, C_in, L]`, weights `[C_out, C_in, K]`,
//! outputs `[B, C_out, L]`. The convolution is *causal*: output step `l` only
//! reads input steps `<= l`, padding the left edge with zeros, so the output
//! length equals the input length. This is the temporal convolution used by
//! the GDCC operator (Graph WaveNet-style gated dilated causal conv).
//!
//! ## im2col lowering
//! Above [`DIRECT_MAX_WORK`] the convolution is lowered onto the packed
//! matmul kernels: each batch element's zero-padded input is unrolled into a
//! `(C_in·K) × L` column matrix (`im2col`), so the forward pass becomes
//! `W[C_out × C_in·K] · cols`, the weight gradient becomes `dOut · colsᵀ` and
//! the input gradient scatters `Wᵀ · dOut` back through `col2im`. The column
//! scratch comes from the thread-local [`crate::pool`] and is reused across
//! the batch, so steady-state conv calls allocate nothing.
//!
//! ## Small shapes
//! Below [`DIRECT_MAX_WORK`] the unroll-and-multiply detour costs more than
//! it saves, and a channel-vectorised kernel ([`small`]) runs instead. It
//! reorders the original direct loops ([`direct`], now the reference) so the
//! innermost loop runs across a channel axis rather than over at most `L`
//! time steps, yet keeps every output element's operand pairs and reduction
//! order — so it is bit-identical to [`direct`], not merely close.

use std::cell::RefCell;

/// Work bound (`C_out · C_in · K · L` multiply-adds per batch element) below
/// which the small-shape kernels beat the im2col + packed-matmul detour.
const DIRECT_MAX_WORK: usize = 4096;

/// Reference direct kernels: the original nested loops, kept as the
/// differential-testing reference for [`small`] and the path taken when the
/// fast kernels are switched off. Every weight tap is applied (no
/// zero-weight skip), matching IEEE product semantics over the valid
/// (unpadded) input range.
pub mod direct {
    /// Forward causal dilated conv1d. `out` must be zero-filled by the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_forward(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        debug_assert_eq!(x.len(), b * c_in * l);
        debug_assert_eq!(w.len(), c_out * c_in * ksize);
        debug_assert_eq!(out.len(), b * c_out * l);
        let reach = (ksize - 1) * dilation;
        for bi in 0..b {
            for co in 0..c_out {
                let out_row = &mut out[(bi * c_out + co) * l..(bi * c_out + co + 1) * l];
                for ci in 0..c_in {
                    let x_row = &x[(bi * c_in + ci) * l..(bi * c_in + ci) * l + l];
                    let w_row = &w[(co * c_in + ci) * ksize..(co * c_in + ci + 1) * ksize];
                    for (k, &wk) in w_row.iter().enumerate() {
                        // input index for output l: t = l - (reach - k*dilation)
                        let shift = reach - k * dilation;
                        for t in shift..l {
                            out_row[t] += wk * x_row[t - shift];
                        }
                    }
                }
                if let Some(bias) = bias {
                    let bv = bias[co];
                    for o in out_row.iter_mut() {
                        *o += bv;
                    }
                }
            }
        }
    }

    /// Backward pass of [`conv1d_forward`].
    ///
    /// Accumulates into `dx`, `dw` and (optionally) `dbias`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_backward(
        x: &[f32],
        w: &[f32],
        dout: &[f32],
        dx: &mut [f32],
        dw: &mut [f32],
        mut dbias: Option<&mut [f32]>,
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        let reach = (ksize - 1) * dilation;
        for bi in 0..b {
            for co in 0..c_out {
                let g_row = &dout[(bi * c_out + co) * l..(bi * c_out + co + 1) * l];
                if let Some(dbias) = dbias.as_deref_mut() {
                    dbias[co] += g_row.iter().sum::<f32>();
                }
                for ci in 0..c_in {
                    let x_row = &x[(bi * c_in + ci) * l..(bi * c_in + ci) * l + l];
                    let w_row = &w[(co * c_in + ci) * ksize..(co * c_in + ci + 1) * ksize];
                    let dw_row = &mut dw[(co * c_in + ci) * ksize..(co * c_in + ci + 1) * ksize];
                    let dx_row = &mut dx[(bi * c_in + ci) * l..(bi * c_in + ci) * l + l];
                    for k in 0..ksize {
                        let shift = reach - k * dilation;
                        let wk = w_row[k];
                        let mut dwk = 0.0f32;
                        for t in shift..l {
                            let g = g_row[t];
                            dwk += g * x_row[t - shift];
                            dx_row[t - shift] += g * wk;
                        }
                        dw_row[k] += dwk;
                    }
                }
            }
        }
    }
}

thread_local! {
    /// Transpose scratch for [`small`]. It lives outside [`crate::pool`] so
    /// the pool's hit/miss counters (pinned by the golden-run fixtures) see
    /// the same takes as with the direct loops.
    static SMALL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Lends this thread's small-kernel scratch, split into buffers of the given
/// lengths. Contents are stale; callers overwrite before reading.
fn with_scratch<const N: usize, R>(lens: [usize; N], f: impl FnOnce([&mut [f32]; N]) -> R) -> R {
    SMALL_SCRATCH.with_borrow_mut(|buf| {
        let total = lens.iter().sum();
        if buf.len() < total {
            buf.resize(total, 0.0);
        }
        let mut rest = &mut buf[..total];
        f(lens.map(|n| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            head
        }))
    })
}

/// Transposes a row-major `rows × cols` `src` into `dst` laid out as
/// `cols × padded` (`dst[c · padded + r] = src[r · cols + c]`), zero-filling
/// the padding lanes `rows..padded` so every whole-lane load is in bounds.
fn transpose_padded(src: &[f32], dst: &mut [f32], rows: usize, cols: usize, padded: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), cols * padded);
    for (c, dst_row) in dst.chunks_exact_mut(padded).enumerate() {
        for (r, d) in dst_row[..rows].iter_mut().enumerate() {
            *d = src[r * cols + c];
        }
        dst_row[rows..].fill(0.0);
    }
}

/// Channel-vectorised small-shape kernels, bit-identical to [`direct`].
/// Every dimension must be non-zero (empty shapes take [`direct`]).
///
/// [`direct`] reduces each output element over its taps in a fixed order.
/// These kernels form the same `(operand, operand)` products and add them in
/// the same order per element, but hold a block of `W` channels (8, or 16
/// above 8 channels) of one time step in a register accumulator and run the
/// innermost loop across those channels, reading weights (and, for `dw`,
/// inputs) from transposed copies padded to whole blocks. Rust never
/// contracts `a * b + c` into an FMA, so equal operand pairs and equal
/// reduction order give equal bits.
pub mod small {
    use super::{transpose_padded, with_scratch};

    /// The `W`-wide block of `row` starting at `start`.
    #[inline(always)]
    fn lanes<const W: usize>(row: &[f32], start: usize) -> &[f32; W] {
        row[start..start + W].try_into().expect("padded to whole blocks")
    }

    /// Forward causal dilated conv1d; accumulates into `out` like
    /// [`super::direct::conv1d_forward`], bias last.
    ///
    /// For each output step `t` and block of output channels, the
    /// accumulator starts from `out`, adds `w[co, ci, k] · x[ci, t - shift]`
    /// over `(ci, k)` in order, and is written back with the bias added.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_forward(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        let f = if c_out <= 8 { forward::<8> } else { forward::<16> };
        f(x, w, bias, out, b, c_in, c_out, l, ksize, dilation);
    }

    #[allow(clippy::too_many_arguments)]
    fn forward<const W: usize>(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        let reach = (ksize - 1) * dilation;
        let ck = c_in * ksize;
        let cop = c_out.next_multiple_of(W);
        with_scratch([ck * cop], |[wt]| {
            // wt[(ci·K + k) · cop + co] = w[co, ci, k]
            transpose_padded(w, wt, c_out, ck, cop);
            for bi in 0..b {
                let x_b = &x[bi * c_in * l..(bi + 1) * c_in * l];
                let out_b = &mut out[bi * c_out * l..(bi + 1) * c_out * l];
                for t in 0..l {
                    // Taps with shift = reach - k·dilation <= t reach x[.., t - shift].
                    let k_first = (0..ksize).find(|k| reach - k * dilation <= t).unwrap_or(ksize);
                    for cb in (0..c_out).step_by(W) {
                        let width = W.min(c_out - cb);
                        let mut acc = [0.0f32; W];
                        for (j, a) in acc[..width].iter_mut().enumerate() {
                            *a = out_b[(cb + j) * l + t];
                        }
                        for ci in 0..c_in {
                            for k in k_first..ksize {
                                let xv = x_b[ci * l + t + k * dilation - reach];
                                let w_lane = lanes::<W>(wt, (ci * ksize + k) * cop + cb);
                                for (a, &wk) in acc.iter_mut().zip(w_lane) {
                                    *a += wk * xv;
                                }
                            }
                        }
                        for (j, &a) in acc[..width].iter().enumerate() {
                            out_b[(cb + j) * l + t] = match bias {
                                Some(bias) => a + bias[cb + j],
                                None => a,
                            };
                        }
                    }
                }
            }
        });
    }

    /// Backward pass of [`conv1d_forward`]; accumulates into `dx`, `dw` and
    /// (optionally) `dbias` like [`super::direct::conv1d_backward`].
    ///
    /// Both gradients run across blocks of input channels. `dx[ci, u]`
    /// starts from `dx` and adds `dout[co, u + shift] · w[co, ci, k]` over
    /// `(co, k)` in order, against a `[C_out·K, C_in]` weight copy. `dw`
    /// sums `dout[co, t] · x[ci, t - shift]` over `t` from zero per batch
    /// element, against a `[L, C_in]` transpose of `x`, and adds each batch
    /// element's sum in batch order into a `[C_out·K, C_in]` copy of `dw`
    /// that is transposed back at the end.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_backward(
        x: &[f32],
        w: &[f32],
        dout: &[f32],
        dx: &mut [f32],
        dw: &mut [f32],
        dbias: Option<&mut [f32]>,
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        let f = if c_in <= 8 { backward::<8> } else { backward::<16> };
        f(x, w, dout, dx, dw, dbias, b, c_in, c_out, l, ksize, dilation);
    }

    #[allow(clippy::too_many_arguments)]
    fn backward<const W: usize>(
        x: &[f32],
        w: &[f32],
        dout: &[f32],
        dx: &mut [f32],
        dw: &mut [f32],
        mut dbias: Option<&mut [f32]>,
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        let reach = (ksize - 1) * dilation;
        let cip = c_in.next_multiple_of(W);
        let wlen = c_out * ksize * cip;
        with_scratch([wlen, wlen, l * cip], |[wt, dwt, xt]| {
            // wt[(co·K + k) · cip + ci] = w[co, ci, k], and dwt likewise for dw.
            for (src, dst) in [(w, &mut *wt), (&*dw, &mut *dwt)] {
                for (s_co, d_co) in
                    src.chunks_exact(c_in * ksize).zip(dst.chunks_exact_mut(ksize * cip))
                {
                    transpose_padded(s_co, d_co, c_in, ksize, cip);
                }
            }
            for bi in 0..b {
                let g_b = &dout[bi * c_out * l..(bi + 1) * c_out * l];
                if let Some(dbias) = dbias.as_deref_mut() {
                    for (db, g_row) in dbias.iter_mut().zip(g_b.chunks_exact(l)) {
                        *db += g_row.iter().sum::<f32>();
                    }
                }
                // xt[t · cip + ci] = x[ci, t]
                transpose_padded(&x[bi * c_in * l..(bi + 1) * c_in * l], xt, c_in, l, cip);
                let dx_b = &mut dx[bi * c_in * l..(bi + 1) * c_in * l];
                for u in 0..l {
                    // Taps whose output step u + shift lands inside the sequence.
                    let k_first =
                        (0..ksize).find(|k| u + reach - k * dilation < l).unwrap_or(ksize);
                    for cb in (0..c_in).step_by(W) {
                        let width = W.min(c_in - cb);
                        let mut acc = [0.0f32; W];
                        for (j, a) in acc[..width].iter_mut().enumerate() {
                            *a = dx_b[(cb + j) * l + u];
                        }
                        for co in 0..c_out {
                            for k in k_first..ksize {
                                let g = g_b[co * l + u + reach - k * dilation];
                                let w_lane = lanes::<W>(wt, (co * ksize + k) * cip + cb);
                                for (a, &wv) in acc.iter_mut().zip(w_lane) {
                                    *a += g * wv;
                                }
                            }
                        }
                        for (j, &a) in acc[..width].iter().enumerate() {
                            dx_b[(cb + j) * l + u] = a;
                        }
                    }
                }
                for (co, g_row) in g_b.chunks_exact(l).enumerate() {
                    for k in 0..ksize {
                        let shift = reach - k * dilation;
                        let dwt_row = &mut dwt[(co * ksize + k) * cip..(co * ksize + k + 1) * cip];
                        for (cb, dw_lane) in dwt_row.chunks_exact_mut(W).enumerate() {
                            let mut sum = [0.0f32; W];
                            for (t, &g) in g_row.iter().enumerate().skip(shift) {
                                let x_lane = lanes::<W>(xt, (t - shift) * cip + cb * W);
                                for (s, &xv) in sum.iter_mut().zip(x_lane) {
                                    *s += g * xv;
                                }
                            }
                            for (d, s) in dw_lane.iter_mut().zip(sum) {
                                *d += s;
                            }
                        }
                    }
                }
            }
            for (dw_co, dwt_co) in
                dw.chunks_exact_mut(c_in * ksize).zip(dwt.chunks_exact(ksize * cip))
            {
                for (ci, dw_ci) in dw_co.chunks_exact_mut(ksize).enumerate() {
                    for (k, d) in dw_ci.iter_mut().enumerate() {
                        *d = dwt_co[k * cip + ci];
                    }
                }
            }
        });
    }
}

/// Unrolls one batch element (`[C_in, L]`, row-major) into the causal column
/// matrix: `cols[(ci·K + k) · L + t] = x[ci, t - shift_k]` with zero padding
/// left of the sequence start (`shift_k = (K-1-k) · dilation`).
fn im2col(x: &[f32], cols: &mut [f32], c_in: usize, l: usize, ksize: usize, dilation: usize) {
    debug_assert_eq!(x.len(), c_in * l);
    debug_assert_eq!(cols.len(), c_in * ksize * l);
    let reach = (ksize - 1) * dilation;
    for ci in 0..c_in {
        let x_row = &x[ci * l..(ci + 1) * l];
        for k in 0..ksize {
            let shift = reach - k * dilation;
            let row = &mut cols[(ci * ksize + k) * l..(ci * ksize + k + 1) * l];
            row[..shift.min(l)].fill(0.0);
            if shift < l {
                row[shift..].copy_from_slice(&x_row[..l - shift]);
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `(C_in·K) × L` gradient back onto
/// the `[C_in, L]` input layout (padding columns are discarded).
fn col2im(dcols: &[f32], dx: &mut [f32], c_in: usize, l: usize, ksize: usize, dilation: usize) {
    debug_assert_eq!(dcols.len(), c_in * ksize * l);
    debug_assert_eq!(dx.len(), c_in * l);
    let reach = (ksize - 1) * dilation;
    for ci in 0..c_in {
        let dx_row = &mut dx[ci * l..(ci + 1) * l];
        for k in 0..ksize {
            let shift = reach - k * dilation;
            if shift >= l {
                continue;
            }
            let row = &dcols[(ci * ksize + k) * l + shift..(ci * ksize + k + 1) * l];
            for (d, &g) in dx_row[..l - shift].iter_mut().zip(row) {
                *d += g;
            }
        }
    }
}

/// The kernel family that runs one conv1d call.
enum Path {
    Direct,
    Small,
    Im2col,
}

/// Picks the kernels for a shape. Empty shapes and the fast-kernels-off
/// switch take the reference loops.
fn path(c_in: usize, c_out: usize, l: usize, ksize: usize) -> Path {
    let work = c_out * c_in * ksize * l;
    if work == 0 || !crate::ops::matmul::fast_enabled() {
        Path::Direct
    } else if work >= DIRECT_MAX_WORK {
        Path::Im2col
    } else {
        Path::Small
    }
}

/// Forward causal dilated conv1d. `out` must be zero-filled by the caller.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_forward(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    b: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    ksize: usize,
    dilation: usize,
) {
    debug_assert_eq!(x.len(), b * c_in * l);
    debug_assert_eq!(w.len(), c_out * c_in * ksize);
    debug_assert_eq!(out.len(), b * c_out * l);
    match path(c_in, c_out, l, ksize) {
        Path::Direct => {
            return direct::conv1d_forward(x, w, bias, out, b, c_in, c_out, l, ksize, dilation)
        }
        Path::Small => {
            return small::conv1d_forward(x, w, bias, out, b, c_in, c_out, l, ksize, dilation)
        }
        Path::Im2col => {}
    }
    let ck = c_in * ksize;
    let mut cols = crate::pool::take_raw(ck * l);
    for bi in 0..b {
        im2col(&x[bi * c_in * l..(bi + 1) * c_in * l], &mut cols, c_in, l, ksize, dilation);
        let out_b = &mut out[bi * c_out * l..(bi + 1) * c_out * l];
        crate::ops::matmul::matmul_kernel(w, &cols, out_b, c_out, ck, l);
        if let Some(bias) = bias {
            for (co, &bv) in bias.iter().enumerate() {
                for o in out_b[co * l..(co + 1) * l].iter_mut() {
                    *o += bv;
                }
            }
        }
    }
    crate::pool::give(cols);
}

/// Backward pass of [`conv1d_forward`].
///
/// Accumulates into `dx`, `dw` and (optionally) `dbias`.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_backward(
    x: &[f32],
    w: &[f32],
    dout: &[f32],
    dx: &mut [f32],
    dw: &mut [f32],
    mut dbias: Option<&mut [f32]>,
    b: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    ksize: usize,
    dilation: usize,
) {
    match path(c_in, c_out, l, ksize) {
        Path::Direct => {
            return direct::conv1d_backward(
                x, w, dout, dx, dw, dbias, b, c_in, c_out, l, ksize, dilation,
            );
        }
        Path::Small => {
            return small::conv1d_backward(
                x, w, dout, dx, dw, dbias, b, c_in, c_out, l, ksize, dilation,
            );
        }
        Path::Im2col => {}
    }
    let ck = c_in * ksize;
    let mut cols = crate::pool::take_raw(ck * l);
    let mut dcols = crate::pool::take_raw(ck * l);
    for bi in 0..b {
        let g_b = &dout[bi * c_out * l..(bi + 1) * c_out * l];
        if let Some(dbias) = dbias.as_deref_mut() {
            for (co, db) in dbias.iter_mut().enumerate() {
                *db += g_b[co * l..(co + 1) * l].iter().sum::<f32>();
            }
        }
        im2col(&x[bi * c_in * l..(bi + 1) * c_in * l], &mut cols, c_in, l, ksize, dilation);
        // dW += dOut · colsᵀ
        crate::ops::matmul::matmul_a_bt(g_b, &cols, dw, c_out, l, ck);
        // dCols = Wᵀ · dOut, then scatter back through the unroll.
        dcols.fill(0.0);
        crate::ops::matmul::matmul_at_b(w, g_b, &mut dcols, c_out, ck, l);
        col2im(&dcols, &mut dx[bi * c_in * l..(bi + 1) * c_in * l], c_in, l, ksize, dilation);
    }
    crate::pool::give(dcols);
    crate::pool::give(cols);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        // K=1, w=1: output == input.
        let x = [1., 2., 3., 4.];
        let w = [1.0];
        let mut out = [0.0; 4];
        conv1d_forward(&x, &w, None, &mut out, 1, 1, 1, 4, 1, 1);
        assert_eq!(out, x);
    }

    #[test]
    fn causal_shift() {
        // K=2, dilation=1, w=[1,0]: output[t] = x[t-1] (pure delay).
        let x = [1., 2., 3., 4.];
        let w = [1.0, 0.0];
        let mut out = [0.0; 4];
        conv1d_forward(&x, &w, None, &mut out, 1, 1, 1, 4, 2, 1);
        assert_eq!(out, [0., 1., 2., 3.]);
    }

    #[test]
    fn dilated_reach() {
        // K=2, dilation=2, w=[1,1]: out[t] = x[t] + x[t-2].
        let x = [1., 2., 3., 4., 5.];
        let w = [1.0, 1.0];
        let mut out = [0.0; 5];
        conv1d_forward(&x, &w, None, &mut out, 1, 1, 1, 5, 2, 2);
        assert_eq!(out, [1., 2., 4., 6., 8.]);
    }

    #[test]
    fn bias_added_per_channel() {
        let x = [1., 1.];
        let w = [1.0, 2.0]; // two output channels, K=1
        let bias = [10.0, 20.0];
        let mut out = [0.0; 4];
        conv1d_forward(&x, &w, Some(&bias), &mut out, 1, 1, 2, 2, 1, 1);
        assert_eq!(out, [11., 11., 22., 22.]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Small numeric check of dx and dw.
        let b = 1;
        let (c_in, c_out, l, k, d) = (2, 2, 5, 2, 2);
        let x: Vec<f32> = (0..c_in * l).map(|i| (i as f32) * 0.1 - 0.4).collect();
        let w: Vec<f32> = (0..c_out * c_in * k).map(|i| 0.05 * (i as f32) - 0.1).collect();
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            let mut out = vec![0.0; c_out * l];
            conv1d_forward(x, w, None, &mut out, b, c_in, c_out, l, k, d);
            out.iter().map(|v| v * v).sum::<f32>()
        };
        let mut out = vec![0.0; c_out * l];
        conv1d_forward(&x, &w, None, &mut out, b, c_in, c_out, l, k, d);
        let dout: Vec<f32> = out.iter().map(|v| 2.0 * v).collect();
        let mut dx = vec![0.0; x.len()];
        let mut dw = vec![0.0; w.len()];
        conv1d_backward(&x, &w, &dout, &mut dx, &mut dw, None, b, c_in, c_out, l, k, d);

        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dx[{i}]: {num} vs {}", dx[i]);
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 1e-2, "dw[{i}]: {num} vs {}", dw[i]);
        }
    }

    fn seq(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    /// Shapes big enough to take the im2col route must agree with the direct
    /// loops, forward and backward, within float tolerance.
    #[test]
    fn im2col_route_matches_direct_kernels() {
        for &(b, c_in, c_out, l, k, d) in
            &[(2, 8, 16, 48, 3, 1), (1, 16, 16, 64, 2, 4), (3, 4, 32, 96, 3, 2)]
        {
            assert!(c_out * c_in * k * l >= DIRECT_MAX_WORK, "shape must exercise the im2col path");
            let x = seq(b * c_in * l, 0.11, 0.2);
            let w = seq(c_out * c_in * k, 0.07, -0.3);
            let bias = seq(c_out, 0.41, 0.9);
            let mut fast = vec![0.0; b * c_out * l];
            let mut slow = vec![0.0; b * c_out * l];
            conv1d_forward(&x, &w, Some(&bias), &mut fast, b, c_in, c_out, l, k, d);
            direct::conv1d_forward(&x, &w, Some(&bias), &mut slow, b, c_in, c_out, l, k, d);
            for (i, (&f, &s)) in fast.iter().zip(&slow).enumerate() {
                assert!((f - s).abs() <= 1e-4 * s.abs().max(1.0), "fwd[{i}]: {f} vs {s}");
            }

            let dout = seq(b * c_out * l, 0.19, 0.5);
            let mut dxf = vec![0.0; x.len()];
            let mut dwf = vec![0.0; w.len()];
            let mut dbf = vec![0.0; c_out];
            conv1d_backward(
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
            direct::conv1d_backward(
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
            for (name, fast, slow) in
                [("dx", &dxf, &dxs), ("dw", &dwf, &dws), ("dbias", &dbf, &dbs)]
            {
                for (i, (&f, &s)) in fast.iter().zip(slow.iter()).enumerate() {
                    assert!((f - s).abs() <= 2e-4 * s.abs().max(1.0), "{name}[{i}]: {f} vs {s}");
                }
            }
        }
    }

    #[test]
    fn im2col_col2im_roundtrip_counts_taps() {
        // col2im(im2col(x)) multiplies each x[t] by the number of kernel taps
        // that can reach it without crossing the left edge.
        let (c_in, l, k, d) = (2, 6, 3, 2);
        let x = seq(c_in * l, 0.3, 0.1);
        let mut cols = vec![0.0; c_in * k * l];
        im2col(&x, &mut cols, c_in, l, k, d);
        let mut back = vec![0.0; c_in * l];
        col2im(&cols, &mut back, c_in, l, k, d);
        let reach = (k - 1) * d;
        for ci in 0..c_in {
            for t in 0..l {
                // taps with shift s = reach - kk*d need t + s <= l-1... the
                // roundtrip count is how many shifts s satisfy t < l - s.
                let count = (0..k).filter(|kk| t < l - (reach - kk * d).min(l)).count() as f32;
                let got = back[ci * l + t];
                let want = count * x[ci * l + t];
                assert!((got - want).abs() < 1e-5, "t={t}: {got} vs {want}");
            }
        }
    }
}
