//! Bit-parity of the im2col-free convolution: `Conv1d::forward`, in training
//! and in inference, must produce exactly the bits of the lowering it
//! replaced — im2col followed by `matmul_packed_lhs` on a bias-filled output
//! — so a model trains to the same weights either way.

use tinynn::matmul::{matmul_packed_lhs, pack_lhs, KC, NR};
use tinynn::{init, Conv1d, Layer, Tensor, Workspace};

/// The im2col lowering of one `[C, len]` signal: row `c*kernel + t` is
/// channel `c` shifted by `t - pad`, zero outside the signal.
fn im2col(x: &[f32], channels: usize, len: usize, kernel: usize) -> Vec<f32> {
    let pad = (kernel - 1) as isize / 2;
    let mut col = vec![0.0f32; channels * kernel * len];
    for c in 0..channels {
        for t in 0..kernel {
            for j in 0..len {
                let src = j as isize + t as isize - pad;
                if (0..len as isize).contains(&src) {
                    col[(c * kernel + t) * len + j] = x[c * len + src as usize];
                }
            }
        }
    }
    col
}

/// The pre-direct-convolution forward: bias rows, then im2col →
/// `matmul_packed_lhs` per batch item.
fn lowered_forward(conv: &Conv1d, x: &Tensor) -> Vec<f32> {
    let (batch, in_c, len) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (out_c, k) = (conv.out_channels(), conv.kernel_size());
    let ck = in_c * k;
    let mut pack = Vec::new();
    pack_lhs(&mut pack, conv.weight().data(), out_c, ck);
    let mut out = vec![0.0f32; batch * out_c * len];
    for (b, out_b) in out.chunks_mut(out_c * len).enumerate() {
        for (row, &bias) in out_b.chunks_mut(len).zip(conv.bias().data()) {
            row.fill(bias);
        }
        let col = im2col(&x.data()[b * in_c * len..(b + 1) * in_c * len], in_c, len, k);
        matmul_packed_lhs(out_b, &pack, &col, out_c, ck, len);
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn conv_forward_is_bit_identical_to_im2col_gemm() {
    let cases: &[(usize, usize, usize, usize, usize, &str)] = &[
        // (in_c, out_c, kernel, len, batch, what)
        (1, 8, 9, 128, 3, "in_c = 1"),
        (16, 16, 64, 40, 2, "ck > KC"),
        (3, 5, 7, 2 * NR + 5, 2, "len % NR != 0, half-width tail"),
        (3, 5, 7, NR + NR / 2 + 3, 2, "len % NR > NR / 2, full-width tail"),
        (2, 3, 9, 5, 3, "len < kernel"),
        (4, 6, 4, 33, 1, "batch 1, even kernel"),
        (8, 16, 1, 19, 2, "1x1 projection"),
        (KC + 4, 5, 1, 21, 1, "1x1, ck > KC"),
    ];
    for &(in_c, out_c, k, len, batch, what) in cases {
        if what.contains("ck > KC") {
            assert!(in_c * k > KC, "the case must span several KC blocks");
        }
        let mut conv = Conv1d::new(in_c, out_c, k, 40 + k as u64);
        // Non-zero biases, so the bias-first accumulation order is pinned.
        let bias = init::uniform(&[out_c], -1.0, 1.0, 7);
        conv.params_mut()[1].value.data_mut().copy_from_slice(bias.data());
        let x = init::uniform(&[batch, in_c, len], -2.0, 2.0, 11 + len as u64);
        let want = bits(&lowered_forward(&conv, &x));
        let mut ws = Workspace::new();
        for training in [false, true] {
            let got = conv.forward(&x, &mut ws, training);
            assert_eq!(got.shape(), &[batch, out_c, len], "{what}");
            assert_eq!(bits(got.data()), want, "{what}, training = {training}");
            ws.clear();
        }
    }
}

#[test]
fn conv_forward_is_bit_identical_across_reused_workspaces() {
    // A workspace warmed on a wider, longer input leaves stale values in
    // its padded staging; the next forward must not read them.
    let mut ws = Workspace::new();
    let wide = Conv1d::new(6, 4, 9, 1);
    let _ = wide.forward(&init::uniform(&[5, 6, 300], -9.0, 9.0, 2), &mut ws, false);
    let conv = Conv1d::new(2, 3, 5, 3);
    let x = init::uniform(&[2, 2, 21], -1.0, 1.0, 4);
    let got = conv.forward(&x, &mut ws, false);
    assert_eq!(bits(got.data()), bits(&lowered_forward(&conv, &x)));
}
