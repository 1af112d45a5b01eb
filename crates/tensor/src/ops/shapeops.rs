//! Structural ops: concat and axis slicing (forward + gradient helpers),
//! plus the reference permute that [`Tensor::permuted`] is checked against.

use crate::shape::strides_for;
use crate::tensor::Tensor;

/// Reference permute: the per-element odometer [`Tensor::permuted`] ran
/// before it walked strides. Every output element recomputes its source
/// offset as a rank-length dot product. Kept for differential tests and
/// `kernel_bench`; `axes` must be a permutation of `0..rank`.
pub fn permute_odometer(t: &Tensor, axes: &[usize]) -> Tensor {
    let new_shape: Vec<usize> = axes.iter().map(|&a| t.shape()[a]).collect();
    let old_strides = strides_for(t.shape());
    let strides: Vec<usize> = axes.iter().map(|&a| old_strides[a]).collect();
    let mut out = Tensor::zeros(new_shape.clone());
    let mut idx = vec![0usize; new_shape.len()];
    for o in out.data_mut() {
        let off: usize = idx.iter().zip(&strides).map(|(&i, &s)| i * s).sum();
        *o = t.data()[off];
        for d in (0..idx.len()).rev() {
            idx[d] += 1;
            if idx[d] < new_shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// Concatenates tensors along `axis`. All other dimensions must match.
pub fn concat(xs: &[&Tensor], axis: usize) -> Tensor {
    assert!(!xs.is_empty(), "concat of zero tensors");
    let rank = xs[0].rank();
    assert!(axis < rank);
    for t in xs {
        assert_eq!(t.rank(), rank, "concat rank mismatch");
        for (d, (&a, &b)) in xs[0].shape().iter().zip(t.shape()).enumerate() {
            assert!(d == axis || a == b, "concat shape mismatch at dim {d}");
        }
    }
    let outer: usize = xs[0].shape()[..axis].iter().product();
    let inner: usize = xs[0].shape()[axis + 1..].iter().product();
    let total_axis: usize = xs.iter().map(|t| t.shape()[axis]).sum();
    let mut out_shape = xs[0].shape().to_vec();
    out_shape[axis] = total_axis;
    let mut out = Tensor::zeros(out_shape);
    let od = out.data_mut();
    let row = total_axis * inner;
    let mut axis_off = 0usize;
    for t in xs {
        let d = t.shape()[axis];
        let td = t.data();
        for o in 0..outer {
            let src = &td[o * d * inner..(o + 1) * d * inner];
            let dst = &mut od[o * row + axis_off * inner..o * row + (axis_off + d) * inner];
            dst.copy_from_slice(src);
        }
        axis_off += d;
    }
    out
}

/// Splits a concat gradient back to the inputs: accumulates the slice of
/// `dout` corresponding to input `idx` (with `axis` extent `d`, offset
/// `axis_off`) into `dx`.
#[allow(clippy::too_many_arguments)]
pub fn concat_backward_into(
    dout: &[f32],
    dx: &mut [f32],
    outer: usize,
    total_axis: usize,
    inner: usize,
    axis_off: usize,
    d: usize,
) {
    let row = total_axis * inner;
    for o in 0..outer {
        let src = &dout[o * row + axis_off * inner..o * row + (axis_off + d) * inner];
        let dst = &mut dx[o * d * inner..(o + 1) * d * inner];
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += b;
        }
    }
}

/// Extracts `len` entries starting at `start` along `axis`.
pub fn slice_axis(x: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    let shape = x.shape();
    assert!(axis < shape.len());
    assert!(start + len <= shape[axis], "slice {start}+{len} beyond {:?}", shape[axis]);
    let outer: usize = shape[..axis].iter().product();
    let d = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let mut out_shape = shape.to_vec();
    out_shape[axis] = len;
    let mut out = Tensor::zeros(out_shape);
    let od = out.data_mut();
    let xd = x.data();
    for o in 0..outer {
        let src = &xd[(o * d + start) * inner..(o * d + start + len) * inner];
        let dst = &mut od[o * len * inner..(o + 1) * len * inner];
        dst.copy_from_slice(src);
    }
    out
}

/// Scatters a slice gradient back into the source position.
pub fn slice_axis_backward_into(
    dout: &[f32],
    dx: &mut [f32],
    outer: usize,
    d: usize,
    inner: usize,
    start: usize,
    len: usize,
) {
    for o in 0..outer {
        let src = &dout[o * len * inner..(o + 1) * len * inner];
        let dst = &mut dx[(o * d + start) * inner..(o * d + start + len) * inner];
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::new([1, 2], vec![1., 2.]);
        let b = Tensor::new([1, 2], vec![3., 4.]);
        let c0 = concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1., 2., 3., 4.]);
        let c1 = concat(&[&a, &b], 1);
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn concat_then_slice_roundtrip() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::new([2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(slice_axis(&c, 1, 0, 2), a);
        assert_eq!(slice_axis(&c, 1, 2, 3), b);
    }

    #[test]
    fn slice_middle() {
        let x = Tensor::new([1, 4, 2], (0..8).map(|v| v as f32).collect());
        let s = slice_axis(&x, 1, 1, 2);
        assert_eq!(s.shape(), &[1, 2, 2]);
        assert_eq!(s.data(), &[2., 3., 4., 5.]);
    }

    #[test]
    fn slice_backward_scatter() {
        let dout = [1.0, 2.0, 3.0, 4.0];
        let mut dx = [0.0; 8];
        // x [1,4,2], slice axis1 start1 len2
        slice_axis_backward_into(&dout, &mut dx, 1, 4, 2, 1, 2);
        assert_eq!(dx, [0., 0., 1., 2., 3., 4., 0., 0.]);
    }
}
