//! Fused `f32` inference of a 1-D ResNet backbone, one window at a time.
//!
//! The backbone is a conv → batch-norm → ReLU stem followed by
//! [`ResidualBlock1d`]s and a global average pool — the convolutional part
//! of the paper's network (Figure 2). Run layer by layer, every layer of
//! every window makes a full `[B, C, N]` pass through memory, and batch norm,
//! ReLU, the residual add and the pool each make another. [`pooled_features`]
//! instead runs the whole backbone for one window before it moves to the
//! next:
//!
//! * each batch norm is folded into its convolution once per call
//!   ([`fold_batchnorm`]), and the folded weights are packed into the
//!   workspace, where a plain convolution packs its weights too;
//! * every convolution is the im2col-free [`matmul::conv_direct_f32`], and
//!   its epilogue — bias, residual add, ReLU and the global-pool sum — runs
//!   when a register tile is stored, writing straight into the zero-padded
//!   input buffer of the next layer;
//! * one window's activations (a few tens of KiB) stay in per-worker
//!   scratch that is reused for every window, so they never leave the
//!   cache; windows fan out across threads under the usual
//!   [`parallel::thread_count_for`] / [`parallel::serial_region`] rule.
//!
//! Results differ from the layer-by-layer path only by the rounding of the
//! fold (the tests state the measured bound), and are bit-identical for any
//! thread count and batch composition: each window runs the same code on
//! its own scratch.

use crate::layers::{fold_batchnorm, BatchNorm1d, Conv1d, ResidualBlock1d};
use crate::matmul::{self, NR};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Work threshold (in FLOPs) below which the windows stay on one thread.
const PAR_MIN_FLOPS: usize = 1 << 21;

/// Every convolution of the backbone with the batch norm folded into it, in
/// execution order: the stem, then per block `conv1`, the projection (if
/// any) and `conv2`.
fn folded_convs<'a>(
    stem: (&'a Conv1d, &'a BatchNorm1d),
    blocks: &'a [&'a ResidualBlock1d],
) -> impl Iterator<Item = (&'a Conv1d, &'a BatchNorm1d)> + 'a {
    std::iter::once(stem).chain(blocks.iter().flat_map(|block| {
        let (conv1, bn1, conv2, bn2, projection) = block.parts();
        std::iter::once((conv1, bn1)).chain(projection).chain(std::iter::once((conv2, bn2)))
    }))
}

/// Floats one folded convolution takes in the plan: its packed weights,
/// then its bias.
fn plan_len(conv: &Conv1d) -> usize {
    let out_c = conv.out_channels();
    matmul::packed_lhs_len(out_c, conv.in_channels() * conv.kernel_size()) + out_c
}

/// Floats of the whole plan, and of the largest folded weight block (the
/// fold staging).
fn plan_sizes(stem: (&Conv1d, &BatchNorm1d), blocks: &[&ResidualBlock1d]) -> (usize, usize) {
    folded_convs(stem, blocks).fold((0, 0), |(plan, fold), (c, _)| {
        let weights = c.out_channels() * c.in_channels() * c.kernel_size();
        (plan + plan_len(c), fold.max(weights))
    })
}

/// Reads the folded convolutions back out of the plan, in the order
/// [`folded_convs`] wrote them.
struct Plan<'a> {
    rest: &'a [f32],
}

impl<'a> Plan<'a> {
    /// The packed weights and bias of the next convolution, `conv`.
    fn next(&mut self, conv: &Conv1d) -> (&'a [f32], &'a [f32]) {
        let (pack, rest) = self.rest.split_at(plan_len(conv) - conv.out_channels());
        let (bias, rest) = rest.split_at(conv.out_channels());
        self.rest = rest;
        (pack, bias)
    }
}

/// Layout of one window's activation buffers. Every buffer is channel-major
/// with row stride `rs`; the `len` samples of a row start at `pad`, and the
/// zeros around them are the same-padding of every convolution that reads
/// the row.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    len: usize,
    pad: usize,
    rs: usize,
    /// Channel rows per activation buffer (the widest layer).
    width: usize,
    /// Channel rows of the network input.
    in_c: usize,
}

impl Geometry {
    fn new(stem: (&Conv1d, &BatchNorm1d), blocks: &[&ResidualBlock1d], len: usize) -> Self {
        let (mut pad, mut right, mut width) = (0, 0, 0);
        for (conv, _) in folded_convs(stem, blocks) {
            let (k, left) = (conv.kernel_size(), (conv.kernel_size() - 1) / 2);
            pad = pad.max(left);
            right = right.max(k - 1 - left);
            width = width.max(conv.out_channels());
        }
        let rs = matmul::direct_row_stride(len, 1) + pad + right;
        Self { len, pad, rs, width, in_c: stem.0.in_channels() }
    }

    /// Floats of one worker's scratch: the padded input, four activation
    /// buffers (block input, mid, block output, shortcut), then the
    /// per-lane pool sums.
    fn scratch_len(&self) -> usize {
        (self.in_c + 4 * self.width) * self.rs + self.width * NR
    }

    /// Runs the folded `conv` on the padded buffer `x`, handing each
    /// finished tile to `store` (see [`matmul::conv_direct_f32`]).
    fn conv<F: FnMut(usize, usize, &[f32])>(
        &self,
        plan: &mut Plan<'_>,
        conv: &Conv1d,
        x: &[f32],
        store: F,
    ) {
        let (pack, bias) = plan.next(conv);
        let k = conv.kernel_size();
        let x = &x[self.pad - (k - 1) / 2..];
        let (out_c, ck) = (conv.out_channels(), conv.in_channels() * k);
        matmul::conv_direct_f32(pack, x, self.rs, out_c, k, ck, self.len, bias, store);
    }
}

/// Stores `max(v, 0)` into `dst` (the body of a padded row).
#[inline]
fn relu_store(dst: &mut [f32], v: &[f32]) {
    for (d, &a) in dst.iter_mut().zip(v) {
        *d = a.max(0.0);
    }
}

/// The whole backbone for one window: `x` is its `[in_c, len]` input,
/// `pooled` receives the global-average-pooled output channels of the last
/// block. `scratch` must be zero outside the row bodies (the padding); the
/// bodies are overwritten before they are read.
fn window(
    g: &Geometry,
    plan: &[f32],
    stem: &Conv1d,
    blocks: &[&ResidualBlock1d],
    x: &[f32],
    scratch: &mut [f32],
    pooled: &mut [f32],
) {
    let Geometry { len, pad, rs, width, in_c } = *g;
    let (input, rest) = scratch.split_at_mut(in_c * rs);
    let (mut cur, rest) = rest.split_at_mut(width * rs);
    let (mid, rest) = rest.split_at_mut(width * rs);
    let (mut next, rest) = rest.split_at_mut(width * rs);
    let (short, lanes) = rest.split_at_mut(width * rs);
    for (row, src) in input.chunks_exact_mut(rs).zip(x.chunks_exact(len)) {
        row[pad..pad + len].copy_from_slice(src);
    }
    let mut plan = Plan { rest: plan };
    g.conv(&mut plan, stem, input, |o, jb, v| {
        relu_store(&mut cur[o * rs + pad + jb..][..v.len()], v)
    });
    // The pool sums each channel in NR independent lanes: one dependent
    // scalar add per output position was a latency chain costing a sixth
    // of the window.
    lanes.fill(0.0);
    for (i, block) in blocks.iter().enumerate() {
        let (conv1, _, conv2, _, projection) = block.parts();
        g.conv(&mut plan, conv1, cur, |o, jb, v| {
            relu_store(&mut mid[o * rs + pad + jb..][..v.len()], v)
        });
        // The shortcut, read with row stride `rs` from position 0: the
        // projection's output, or the block input's row bodies.
        let shortcut: &[f32] = match projection {
            Some((proj, _)) => {
                g.conv(&mut plan, proj, cur, |o, jb, v| {
                    short[o * rs + jb..o * rs + jb + v.len()].copy_from_slice(v);
                });
                short
            }
            None => &cur[pad..],
        };
        let last = i + 1 == blocks.len();
        g.conv(&mut plan, conv2, mid, |o, jb, v| {
            let s = &shortcut[o * rs + jb..o * rs + jb + v.len()];
            if last {
                for ((l, &a), &b) in lanes[o * NR..][..v.len()].iter_mut().zip(v).zip(s) {
                    *l += (a + b).max(0.0);
                }
            } else {
                for ((d, &a), &b) in next[o * rs + pad + jb..][..v.len()].iter_mut().zip(v).zip(s) {
                    *d = (a + b).max(0.0);
                }
            }
        });
        std::mem::swap(&mut cur, &mut next);
    }
    let inv_len = 1.0 / len as f32;
    for (p, l) in pooled.iter_mut().zip(lanes.chunks_exact(NR)) {
        *p = l.iter().sum::<f32>() * inv_len;
    }
}

/// Checks that the blocks chain onto the stem and returns the channel count
/// of the pooled output.
fn check_chain(stem: (&Conv1d, &BatchNorm1d), blocks: &[&ResidualBlock1d]) -> usize {
    assert!(!blocks.is_empty(), "the fused backbone needs at least one residual block");
    let mut channels = stem.0.out_channels();
    for block in blocks {
        let (conv1, ..) = block.parts();
        assert_eq!(conv1.in_channels(), channels, "residual block does not chain");
        channels = block.out_channels();
    }
    channels
}

/// Inference of the backbone `stem` → `blocks` → global average pool:
/// windows `[B, C, N]` → pooled features `[B, C_out]`, with every batch norm
/// folded and the epilogues fused (see the [module documentation](self)).
///
/// The output tensor comes from the workspace arena; the folded weight plan
/// and the activation scratch are workspace buffers, so a warm call
/// allocates nothing from the arena and grows no scratch.
///
/// # Panics
///
/// Panics if `blocks` is empty, the layers do not chain, or `input` is not
/// `[B, stem.in_channels(), N]`.
pub fn pooled_features(
    stem: (&Conv1d, &BatchNorm1d),
    blocks: &[&ResidualBlock1d],
    input: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let (batch, len) = (input.shape()[0], input.shape()[2]);
    let flops: usize = folded_convs(stem, blocks)
        .map(|(c, _)| 2 * c.out_channels() * c.in_channels() * c.kernel_size())
        .sum::<usize>()
        * len
        * batch;
    let threads = parallel::thread_count_for(batch, flops, PAR_MIN_FLOPS);
    pooled_features_on(stem, blocks, input, ws, threads)
}

/// [`pooled_features`] on up to `threads` threads.
fn pooled_features_on(
    stem: (&Conv1d, &BatchNorm1d),
    blocks: &[&ResidualBlock1d],
    input: &Tensor,
    ws: &mut Workspace,
    threads: usize,
) -> Tensor {
    let out_c = check_chain(stem, blocks);
    assert_eq!(input.shape().len(), 3, "expected windows [B, C, N]");
    assert_eq!(input.shape()[1], stem.0.in_channels(), "input channel mismatch");
    let (batch, len) = (input.shape()[0], input.shape()[2]);

    // Fold and pack every convolution once per call (the weights may change
    // between calls during training).
    let (plan_total, fold_max) = plan_sizes(stem, blocks);
    ws.pack.resize(plan_total, 0.0);
    ws.fold.resize(fold_max, 0.0);
    let mut rest = &mut ws.pack[..];
    for (conv, bn) in folded_convs(stem, blocks) {
        let (oc, ck) = (conv.out_channels(), conv.in_channels() * conv.kernel_size());
        let (entry, tail) = std::mem::take(&mut rest).split_at_mut(plan_len(conv));
        rest = tail;
        let (pack, bias) = entry.split_at_mut(entry.len() - oc);
        let weights = &mut ws.fold[..oc * ck];
        fold_batchnorm(conv, bn, weights, bias);
        matmul::pack_lhs_into(pack, weights, oc, ck);
    }

    let g = Geometry::new(stem, blocks, len);
    let scratch_len = g.scratch_len();
    ws.act.clear();
    ws.act.resize(parallel::worker_count(batch, threads) * scratch_len, 0.0);
    let mut pooled = ws.uninit_tensor(&[batch, out_c]);
    let (plan, x) = (&ws.pack, input.data());
    let item = g.in_c * len;
    parallel::for_each_item_with_scratch(
        pooled.data_mut(),
        out_c,
        threads,
        &mut ws.act,
        scratch_len,
        |b, row, scratch| window(&g, plan, stem.0, blocks, &x[b * item..][..item], scratch, row),
    );
    pooled
}

/// Bytes of workspace scratch [`pooled_features`] retains after a call on
/// windows of `len` samples with `workers` workers (one per thread that
/// scores): the folded weight plan, the fold staging and each worker's
/// activation buffers. The output tensor is not included.
pub fn scratch_bytes(
    stem: (&Conv1d, &BatchNorm1d),
    blocks: &[&ResidualBlock1d],
    len: usize,
    workers: usize,
) -> usize {
    let (plan, fold) = plan_sizes(stem, blocks);
    let act = workers * Geometry::new(stem, blocks, len).scratch_len();
    (plan + fold + act) * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::layers::{forward_consuming, GlobalAvgPool1d, Layer, Relu};

    /// Non-trivial batch-norm running statistics, so the fold has
    /// something to fold: running means and variances alternate.
    fn perturb_stats(buffers: Vec<&mut Vec<f32>>, seed: u64) {
        for (i, b) in buffers.into_iter().enumerate() {
            let (lo, hi) = if i % 2 == 0 { (-0.5, 0.5) } else { (0.3, 2.0) };
            let v = init::uniform(&[b.len()], lo, hi, seed + i as u64);
            b.copy_from_slice(v.data());
        }
    }

    /// Non-trivial 1-D parameters: conv biases, gammas and betas.
    fn perturb_vectors(params: Vec<&mut crate::Param>, seed: u64) {
        for (i, p) in params.into_iter().enumerate().filter(|(_, p)| p.value.shape().len() == 1) {
            let v = init::uniform(p.value.shape(), 0.5, 1.5, seed + i as u64);
            p.value.data_mut().copy_from_slice(v.data());
        }
    }

    /// A scaled-down copy of the paper's backbone — a stem, an identity
    /// block and a projection block — with every batch norm perturbed.
    fn backbone(f: usize, k: usize) -> (Conv1d, BatchNorm1d, Vec<ResidualBlock1d>) {
        let mut stem = Conv1d::new(1, f, k, 3);
        let mut bn = BatchNorm1d::new(f);
        let mut blocks =
            vec![ResidualBlock1d::new(f, f, k, 5), ResidualBlock1d::new(f, 2 * f, k, 7)];
        perturb_stats(bn.buffers_mut(), 1);
        perturb_vectors(stem.params_mut().into_iter().chain(bn.params_mut()).collect(), 10);
        for (i, block) in blocks.iter_mut().enumerate() {
            perturb_stats(block.buffers_mut(), 100 * (i as u64 + 1));
            perturb_vectors(block.params_mut(), 100 * (i as u64 + 1) + 50);
        }
        (stem, bn, blocks)
    }

    /// The layer-by-layer inference path the fused chain replaces.
    fn unfused(stem: &Conv1d, bn: &BatchNorm1d, blocks: &[ResidualBlock1d], x: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        let h = stem.forward(x, &mut ws, false);
        let h = forward_consuming(bn, h, &mut ws, false);
        let mut h = forward_consuming(&Relu::new(), h, &mut ws, false);
        for block in blocks {
            h = forward_consuming(block, h, &mut ws, false);
        }
        forward_consuming(&GlobalAvgPool1d::new(), h, &mut ws, false)
    }

    fn windows(batch: usize, len: usize, seed: u64) -> Tensor {
        init::uniform(&[batch, 1, len], -2.0, 2.0, seed)
    }

    #[test]
    fn fused_matches_unfused_layers_within_fold_rounding() {
        // Measured: max |fused - unfused| / (1 + |unfused|) = 2.63e-7 over
        // these shapes (1.9e-6 absolute, pooled features up to 10.8) — about
        // two ulps of the fold's rounding. The bound leaves ~4x headroom.
        const BOUND: f32 = 1e-6;
        for &(f, k, len, batch) in
            &[(8usize, 9usize, 209usize, 5usize), (4, 4, 40, 3), (2, 64, 30, 2)]
        {
            let (stem, bn, blocks) = backbone(f, k);
            let x = windows(batch, len, 17 + k as u64);
            let want = unfused(&stem, &bn, &blocks, &x);
            let refs: Vec<&ResidualBlock1d> = blocks.iter().collect();
            let got = pooled_features((&stem, &bn), &refs, &x, &mut Workspace::new());
            assert_eq!(got.shape(), want.shape());
            for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                let tol = BOUND * (1.0 + b.abs());
                assert!((a - b).abs() <= tol, "f{f} k{k} n{len} at {i}: fused {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_is_bit_identical_across_thread_counts_and_batches() {
        let (stem, bn, blocks) = backbone(4, 5);
        let refs: Vec<&ResidualBlock1d> = blocks.iter().collect();
        let x = windows(7, 37, 3);
        let mut ws = Workspace::new();
        let one = pooled_features_on((&stem, &bn), &refs, &x, &mut ws, 1);
        for threads in 2..=4 {
            let many = pooled_features_on((&stem, &bn), &refs, &x, &mut ws, threads);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one), bits(&many), "threads={threads}");
        }
        // A window scores the same alone as inside a batch.
        for b in 0..7 {
            let single = Tensor::from_vec(x.data()[b * 37..(b + 1) * 37].to_vec(), &[1, 1, 37]);
            let alone = pooled_features_on((&stem, &bn), &refs, &single, &mut ws, 1);
            assert_eq!(alone.data(), &one.data()[b * 8..(b + 1) * 8], "window {b}");
        }
    }

    #[test]
    fn scratch_bytes_matches_the_warm_workspace() {
        let (stem, bn, blocks) = backbone(8, 9);
        let refs: Vec<&ResidualBlock1d> = blocks.iter().collect();
        let x = windows(4, 100, 9);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let pooled = pooled_features_on((&stem, &bn), &refs, &x, &mut ws, 1);
            ws.recycle(pooled);
        }
        let pooled_bytes = 4 * 16 * 4 + 2 * std::mem::size_of::<usize>();
        assert_eq!(ws.retained_bytes(), scratch_bytes((&stem, &bn), &refs, 100, 1) + pooled_bytes);
    }
}
