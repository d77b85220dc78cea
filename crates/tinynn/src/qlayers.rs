//! Inference-only quantised layer variants (`i8` weights, `f32` activations).
//!
//! Each quantised layer mirrors its `f32` counterpart behind the same
//! [`Layer`] trait, so a quantised network slots into every generic forward
//! path (sequential containers, shared-weight scoring) unchanged:
//!
//! * [`QuantizedConv1d`] — im2row on dynamically quantised `i16` activation
//!   codes, then the [`crate::matmul::matmul_q8`] integer dot-product GEMM
//!   with per-output-channel `i8` weights;
//! * [`QuantizedLinear`] — per-batch-row activation quantisation and the
//!   [`crate::matmul::matmul_q8_a_bt`] integer GEMM;
//! * [`QuantizedResidualBlock1d`] — the residual block with both
//!   convolutions (and the projection shortcut, when present) quantised.
//!
//! Two inference-graph folds keep the quantised path lean:
//!
//! * **Batch-norm folding** — at inference a batch-norm layer is a
//!   per-channel affine `y = s·x + t`; [`QuantizedConv1d::from_conv_folded`]
//!   absorbs it into the convolution's weights and bias *before*
//!   quantisation, so the quantised network contains no separate batch-norm
//!   passes at all (per-channel weight scales absorb the rescaling
//!   exactly).
//! * **ReLU fusing** — a following ReLU becomes an in-place clamp on the
//!   layer output, saving one full tensor allocation and copy per layer.
//!
//! Every layer offers **two forward paths**:
//!
//! * the dynamic [`Layer`] path above (`f32` in, `f32` out, per-call
//!   activation scales) — the calibration and parity-reference path;
//! * the **fixed-point path** (`forward_fixed` / `forward_fixed_codes`):
//!   once static activation scales are calibrated
//!   ([`QuantizedConv1d::set_fixed_point`] builds a
//!   [`crate::quant::QuantPlan`]), activations stay `i16` codes *between*
//!   layers ([`crate::quant::QuantActs`]), each layer is one fused
//!   requantising GEMM ([`matmul::matmul_q8_requant_sliding`]) writing
//!   position-major codes directly into the next layer's channels-last
//!   window layout, ReLU is the output clamp and the residual add is an
//!   integer add of same-grid codes. No `f32` roundtrip, scale scan or
//!   transpose exists between layers — this is the serving hot path.
//!
//! Quantised layers are **inference-only**: `forward` with `training ==
//! true` and `backward` panic. They hold no gradient or optimiser state —
//! quantise a trained `f32` network, never train a quantised one.

use crate::layers::{
    fold_batchnorm, forward_consuming, BatchNorm1d, Conv1d, Layer, Linear, ResidualBlock1d,
};
use crate::matmul;
use crate::quant::{
    quantize_activations_into, QuantActs, QuantPlan, QuantizedGemm, Requantizer, ACT_QMAX,
};
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Panic helper for the unsupported training entry points.
fn inference_only(layer: &str) -> ! {
    panic!("{layer} is inference-only: quantise a trained f32 network instead of training it")
}

/// Re-lays one quantised `[C, len]` signal as a zero-padded channels-last
/// buffer: row `r` of the `[len + kernel - 1, C]` output holds the codes of
/// sample `r - pad` across all channels (zeros where the index overhangs
/// the signal).
///
/// In this orientation the receptive field of output position `j` is the
/// contiguous slice `xt[j*C .. (j + kernel)*C]` — sample-major,
/// channel-minor, exactly the `[kernel, in_c]` order the permuted quantised
/// weight rows use — so the convolution needs **no im2col/im2row lowering
/// at all**: the GEMM ([`matmul::matmul_q8_sliding`]) walks overlapping
/// windows of this one small buffer. The build moves `C*len` codes (one
/// transpose pass), a factor `kernel` less data than an im2col-style
/// lowering.
fn transpose_pad_q(
    xt: &mut Vec<i16>,
    x: &[i16],
    channels: usize,
    len: usize,
    kernel: usize,
    pad: usize,
) {
    let rows = len + kernel - 1;
    xt.resize(rows * channels, 0);
    xt[..pad * channels].fill(0);
    xt[(pad + len) * channels..].fill(0);
    let body = &mut xt[pad * channels..(pad + len) * channels];
    if channels == 1 {
        body.copy_from_slice(x);
    } else {
        for (c, x_c) in x.chunks_exact(len).enumerate() {
            for (j, &v) in x_c.iter().enumerate() {
                body[j * channels + c] = v;
            }
        }
    }
}

/// Permutes a `[out, in_c, kernel]` weight matrix's columns from the
/// canonical `c*kernel + t` order to the sample-major `t*in_c + c` order of
/// the channels-last activation windows (see [`transpose_pad_q`]). A pure
/// per-row column permutation: the per-row quantisation scales and the
/// serialised block geometry are unaffected, and the integer dot products
/// are exact whatever the summation order, so scores are bit-identical to a
/// canonical-order evaluation.
fn permute_weights_sample_major(weights: &[f32], in_c: usize, kernel: usize) -> Vec<f32> {
    let ck = in_c * kernel;
    let mut permuted = vec![0.0f32; weights.len()];
    for (row, dst) in weights.chunks_exact(ck).zip(permuted.chunks_exact_mut(ck)) {
        for c in 0..in_c {
            for t in 0..kernel {
                dst[t * in_c + c] = row[c * kernel + t];
            }
        }
    }
    permuted
}

/// In-place fused ReLU on a freshly produced output block.
#[inline]
fn relu_in_place(out: &mut [f32]) {
    for v in out.iter_mut() {
        *v = v.max(0.0);
    }
}

// ---------------------------------------------------------------------------
// QuantizedConv1d
// ---------------------------------------------------------------------------

/// Quantised 1-D convolution with stride 1 and "same" zero padding.
///
/// Weights are the per-output-channel `i8` block of a trained [`Conv1d`]
/// (optionally with a following batch-norm folded in); activations are
/// quantised to `i16` per batch item (one dynamic scale), so the conv
/// lowers to an integer GEMM with exact `i32` panel accumulation.
#[derive(Debug, Clone)]
pub struct QuantizedConv1d {
    gemm: QuantizedGemm,
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    fused_relu: bool,
    /// Fixed-point execution plan (set by [`Self::set_fixed_point`] once the
    /// activation scales are calibrated). `None` means only the dynamic
    /// [`Layer`] path is available.
    plan: Option<QuantPlan>,
}

impl QuantizedConv1d {
    /// Quantises a trained convolution layer as-is (no folds).
    pub fn from_conv(conv: &Conv1d) -> Self {
        let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
        let permuted = permute_weights_sample_major(conv.weight().data(), in_c, k);
        Self {
            gemm: QuantizedGemm::from_f32(&permuted, conv.bias().data(), out_c, in_c * k),
            in_channels: in_c,
            out_channels: out_c,
            kernel_size: k,
            fused_relu: false,
            plan: None,
        }
    }

    /// Quantises a trained convolution with the *following* batch-norm
    /// folded into the weights and bias by [`fold_batchnorm`] (`w' = s_c ·
    /// w`, `b' = s_c · b + t_c`), optionally fusing the
    /// ReLU that follows the batch-norm. The folded network computes the
    /// same function as conv → bn (→ relu) up to float reassociation, one
    /// layer at a time.
    ///
    /// # Panics
    ///
    /// Panics if the batch-norm channel count does not match the
    /// convolution's output channels.
    pub fn from_conv_folded(conv: &Conv1d, bn: &BatchNorm1d, fused_relu: bool) -> Self {
        let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
        let cols = in_c * k;
        let mut folded_w = vec![0.0f32; out_c * cols];
        let mut folded_b = vec![0.0f32; out_c];
        fold_batchnorm(conv, bn, &mut folded_w, &mut folded_b);
        // The fold scales whole rows, so permuting after it moves the same
        // values the permute-then-scale order produced.
        let folded_w = permute_weights_sample_major(&folded_w, in_c, k);
        Self {
            gemm: QuantizedGemm::from_f32(&folded_w, &folded_b, out_c, cols),
            in_channels: in_c,
            out_channels: out_c,
            kernel_size: k,
            fused_relu,
            plan: None,
        }
    }

    /// The quantised weight block (`[out_c, in_c·kernel]`).
    pub fn gemm(&self) -> &QuantizedGemm {
        &self.gemm
    }

    /// Mutable access to the quantised weight block (model loading).
    pub fn gemm_mut(&mut self) -> &mut QuantizedGemm {
        &mut self.gemm
    }

    /// Kernel size.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// `true` if a following ReLU is fused into this layer's output.
    pub fn fused_relu(&self) -> bool {
        self.fused_relu
    }

    fn pad_left(&self) -> usize {
        (self.kernel_size - 1) / 2
    }

    /// Builds the fixed-point execution plan of this layer for calibrated
    /// input/output activation grids, enabling [`Self::forward_fixed`]. The
    /// layer's fused ReLU becomes the plan's output clamp.
    pub fn set_fixed_point(&mut self, in_scale: f32, out_scale: f32) {
        self.plan = Some(QuantPlan::new(&self.gemm, in_scale, out_scale, self.fused_relu));
    }

    /// The fixed-point plan, when one has been built.
    pub fn plan(&self) -> Option<&QuantPlan> {
        self.plan.as_ref()
    }

    /// Fixed-point forward pass: `i16` activation codes in, `i16` codes out,
    /// one fused requantising GEMM per batch item and **no `f32` value
    /// anywhere** — no dynamic scale scan, no dequantise/requantise
    /// roundtrip, no transpose (the GEMM writes position-major, which *is*
    /// the channels-last body layout `out` hands the next layer).
    ///
    /// `out` must be pre-shaped by the caller (same batch and length,
    /// `out_channels` channels, pad geometry covering every consumer); its
    /// pads are zeroed and its scale is set to the plan's output scale.
    ///
    /// # Panics
    ///
    /// Panics if no plan is set ([`Self::set_fixed_point`]), if a geometry
    /// field disagrees, or if `x`'s grid is not the plan's input grid.
    pub fn forward_fixed(&self, x: &QuantActs, out: &mut QuantActs) {
        let plan = self.plan.as_ref().expect("set_fixed_point before forward_fixed");
        assert_eq!(x.channels, self.in_channels, "input channel mismatch");
        assert_eq!(out.channels, self.out_channels, "output channel mismatch");
        assert_eq!(x.batch, out.batch, "batch mismatch");
        assert_eq!(x.len, out.len, "length mismatch (stride-1 same conv)");
        assert_eq!(
            plan.in_scale.to_bits(),
            x.scale.to_bits(),
            "input codes are on a different grid than the plan was built for"
        );
        let p = self.pad_left();
        assert!(x.pad_left >= p, "input pad {} cannot serve kernel pad {p}", x.pad_left);
        let offset = x.pad_left - p;
        assert!(
            x.rows >= offset + x.len - 1 + self.kernel_size,
            "input rows {} cannot cover {} windows of kernel {}",
            x.rows,
            x.len,
            self.kernel_size
        );
        let (in_c, out_c, ck) = (self.in_channels, self.out_channels, self.gemm.cols());
        out.scale = plan.out_scale;
        out.zero_pads();
        let span = (x.len - 1) * in_c + ck;
        for b in 0..x.batch {
            let src_start = b * x.rows * in_c + offset * in_c;
            let src = &x.codes[src_start..src_start + span];
            let dst_start = b * out.rows * out_c + out.pad_left * out_c;
            let dst = &mut out.codes[dst_start..dst_start + x.len * out_c];
            // SIMD fast path on the packed weights; scalar fallback computes
            // the same codes bit for bit.
            if !matmul::matmul_q8_requant_sliding_packed(
                dst,
                self.gemm.packed16(),
                &plan.bias_q,
                &plan.mults_i32,
                plan.shift,
                src,
                out_c,
                ck,
                x.len,
                in_c,
                plan.lo,
                plan.hi,
            ) {
                matmul::matmul_q8_requant_sliding(
                    dst,
                    self.gemm.data16(),
                    &plan.bias_q,
                    &plan.mults,
                    src,
                    out_c,
                    ck,
                    x.len,
                    in_c,
                    plan.lo,
                    plan.hi,
                );
            }
        }
    }
}

impl Layer for QuantizedConv1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        if training {
            inference_only("QuantizedConv1d");
        }
        assert_eq!(input.shape().len(), 3, "QuantizedConv1d expects a 3-D input [B, C, N]");
        assert_eq!(input.shape()[1], self.in_channels, "QuantizedConv1d channel mismatch");
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let (in_c, out_c, k) = (self.in_channels, self.out_channels, self.kernel_size);
        let ck = in_c * k;
        let pad = self.pad_left();
        let mut out = ws.uninit_tensor(&[batch, out_c, len]);
        let x = input.data();
        let bias = self.gemm.bias();
        for (b, out_b) in out.data_mut().chunks_mut(out_c * len).enumerate() {
            // Quantise the item once ([C, len] codes), then re-lay the codes
            // channels-last with the padding baked in: every output
            // position's receptive field becomes one contiguous slice, so
            // the GEMM slides over this buffer with no lowering matrix.
            let x_scale =
                quantize_activations_into(&x[b * in_c * len..(b + 1) * in_c * len], &mut ws.qx);
            transpose_pad_q(&mut ws.qcol, &ws.qx, in_c, len, k, pad);
            for (oc, out_row) in out_b.chunks_mut(len).enumerate() {
                out_row.fill(bias[oc]);
            }
            matmul::matmul_q8_sliding(
                out_b,
                self.gemm.data16(),
                self.gemm.scales(),
                &ws.qcol,
                x_scale,
                out_c,
                ck,
                len,
                in_c,
            );
            if self.fused_relu {
                relu_in_place(out_b);
            }
        }
        out
    }

    fn backward(&mut self, _grad_output: &Tensor, _ws: &mut Workspace) -> Tensor {
        inference_only("QuantizedConv1d")
    }
}

// ---------------------------------------------------------------------------
// QuantizedLinear
// ---------------------------------------------------------------------------

/// Quantised fully connected layer: `y = x Wᵀ + b` with `W` stored as
/// per-output-channel `i8` rows and `x` quantised to `i16` per batch row.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    gemm: QuantizedGemm,
    in_features: usize,
    out_features: usize,
    fused_relu: bool,
    /// Fixed-point execution plan (set by [`Self::set_fixed_point`]).
    plan: Option<QuantPlan>,
}

impl QuantizedLinear {
    /// Quantises a trained fully connected layer.
    pub fn from_linear(linear: &Linear) -> Self {
        Self {
            gemm: QuantizedGemm::from_tensor(linear.weight(), linear.bias().data()),
            in_features: linear.in_features(),
            out_features: linear.out_features(),
            fused_relu: false,
            plan: None,
        }
    }

    /// Fuses a following ReLU into this layer's output.
    pub fn with_fused_relu(mut self, fused_relu: bool) -> Self {
        self.fused_relu = fused_relu;
        self
    }

    /// The quantised weight block (`[out, in]`).
    pub fn gemm(&self) -> &QuantizedGemm {
        &self.gemm
    }

    /// Mutable access to the quantised weight block (model loading).
    pub fn gemm_mut(&mut self) -> &mut QuantizedGemm {
        &mut self.gemm
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// `true` if a following ReLU is fused into this layer's output.
    pub fn fused_relu(&self) -> bool {
        self.fused_relu
    }

    /// Builds the fixed-point execution plan for calibrated input/output
    /// activation grids, enabling [`Self::forward_fixed_codes`].
    pub fn set_fixed_point(&mut self, in_scale: f32, out_scale: f32) {
        self.plan = Some(QuantPlan::new(&self.gemm, in_scale, out_scale, self.fused_relu));
    }

    /// Fixed-point forward pass on raw codes: `x` holds `[batch,
    /// in_features]` `i16` activation codes on the plan's input grid, `out`
    /// receives `[batch, out_features]` codes on its output grid. The row
    /// dot products, bias add, requantisation and (fused-ReLU) clamp are one
    /// kernel call — a linear layer is the sliding GEMM with non-overlapping
    /// windows (`stride == k`).
    ///
    /// # Panics
    ///
    /// Panics if no plan is set or a slice length disagrees.
    pub fn forward_fixed_codes(&self, x: &[i16], batch: usize, out: &mut [i16]) {
        let plan = self.plan.as_ref().expect("set_fixed_point before forward_fixed_codes");
        assert_eq!(x.len(), batch * self.in_features, "input must be batch x in_features");
        assert_eq!(out.len(), batch * self.out_features, "output must be batch x out_features");
        // SIMD fast path on the packed weights; scalar fallback computes the
        // same codes bit for bit.
        if !matmul::matmul_q8_requant_sliding_packed(
            out,
            self.gemm.packed16(),
            &plan.bias_q,
            &plan.mults_i32,
            plan.shift,
            x,
            self.out_features,
            self.in_features,
            batch,
            self.in_features,
            plan.lo,
            plan.hi,
        ) {
            matmul::matmul_q8_requant_sliding(
                out,
                self.gemm.data16(),
                &plan.bias_q,
                &plan.mults,
                x,
                self.out_features,
                self.in_features,
                batch,
                self.in_features,
                plan.lo,
                plan.hi,
            );
        }
    }
}

impl Layer for QuantizedLinear {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        if training {
            inference_only("QuantizedLinear");
        }
        assert_eq!(input.shape().len(), 2, "QuantizedLinear expects a 2-D input");
        assert_eq!(input.shape()[1], self.in_features, "QuantizedLinear feature mismatch");
        let batch = input.shape()[0];
        let mut out = ws.uninit_tensor(&[batch, self.out_features]);
        // Per-row activation scales: every batch row is quantised on its own
        // grid, so one outlier row cannot coarsen the others (and window
        // scores stay independent of batch composition). Staging lives in
        // the workspace, so a warm pass allocates nothing.
        ws.qx.clear();
        ws.qscales.clear();
        for row in input.data().chunks(self.in_features) {
            let scale = quantize_activations_into(row, &mut ws.qrow);
            ws.qscales.push(scale);
            let qrow = &ws.qrow;
            ws.qx.extend_from_slice(qrow);
        }
        for row in out.data_mut().chunks_mut(self.out_features) {
            row.copy_from_slice(self.gemm.bias());
        }
        matmul::matmul_q8_a_bt(
            out.data_mut(),
            &ws.qx,
            &ws.qscales,
            self.gemm.data16(),
            self.gemm.scales(),
            batch,
            self.in_features,
            self.out_features,
        );
        if self.fused_relu {
            relu_in_place(out.data_mut());
        }
        out
    }

    fn backward(&mut self, _grad_output: &Tensor, _ws: &mut Workspace) -> Tensor {
        inference_only("QuantizedLinear")
    }
}

// ---------------------------------------------------------------------------
// QuantizedResidualBlock1d
// ---------------------------------------------------------------------------

/// Residual block with quantised convolutions. Both main-branch batch norms
/// (and the projection's, when present) are folded into their convolutions,
/// and the inner ReLU is fused, so the block is
/// `qconv1 → qconv2 (+ shortcut) → relu` — three integer GEMMs and one
/// add/clamp pass.
#[derive(Debug, Clone)]
pub struct QuantizedResidualBlock1d {
    conv1: QuantizedConv1d,
    conv2: QuantizedConv1d,
    projection: Option<QuantizedConv1d>,
    /// Identity-shortcut requantiser of the fixed-point path (block input
    /// grid → block output grid); `None` until [`Self::set_fixed_point`]
    /// runs, and always `None` when a projection carries the shortcut.
    shortcut: Option<Requantizer>,
}

impl QuantizedResidualBlock1d {
    /// Quantises a trained residual block (batch norms folded into the
    /// convolutions, inner ReLU fused).
    pub fn from_residual(block: &ResidualBlock1d) -> Self {
        let (conv1, bn1, conv2, bn2, projection) = block.parts();
        Self {
            conv1: QuantizedConv1d::from_conv_folded(conv1, bn1, true),
            conv2: QuantizedConv1d::from_conv_folded(conv2, bn2, false),
            projection: projection.map(|(c, b)| QuantizedConv1d::from_conv_folded(c, b, false)),
            shortcut: None,
        }
    }

    /// The first (ReLU-fused) convolution — exposed so scale calibration can
    /// observe the block's *mid* activations.
    pub fn conv1(&self) -> &QuantizedConv1d {
        &self.conv1
    }

    /// Builds the fixed-point plans of the whole block: `conv1` maps the
    /// input grid onto the mid grid, `conv2` maps mid onto the output grid,
    /// and the shortcut (projection conv, or a plain per-tensor requantiser
    /// for the identity) maps the input grid onto the output grid, so the
    /// residual add is an exact integer add of same-grid codes.
    pub fn set_fixed_point(&mut self, in_scale: f32, mid_scale: f32, out_scale: f32) {
        self.conv1.set_fixed_point(in_scale, mid_scale);
        self.conv2.set_fixed_point(mid_scale, out_scale);
        match self.projection.as_mut() {
            Some(conv) => conv.set_fixed_point(in_scale, out_scale),
            None => {
                self.shortcut = Some(Requantizer::from_ratio(in_scale as f64 / out_scale as f64));
            }
        }
    }

    /// Fixed-point forward pass of the whole block: two fused requantising
    /// GEMMs (conv1 with its ReLU clamp, conv2 onto the output grid), the
    /// shortcut rescaled onto the same grid (projection GEMM or per-tensor
    /// requantise), and the residual add + final ReLU as one integer
    /// add/clamp pass over the body codes. Scratch comes from the
    /// workspace's `i16` pool, so a warm pass allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::set_fixed_point`] has not run or a geometry field
    /// disagrees (see [`QuantizedConv1d::forward_fixed`]).
    pub fn forward_fixed(&self, x: &QuantActs, out: &mut QuantActs, ws: &mut Workspace) {
        let out_c = self.out_channels();
        let (batch, len) = (x.batch, x.len);
        // Mid activations live on the same padded geometry as `out`, so
        // conv2's windows read them in place.
        let mut mid = QuantActs::with_buffer(
            ws.take_i16(batch * out.rows * out_c),
            batch,
            out_c,
            len,
            out.pad_left,
            out.rows,
            0.0,
        );
        self.conv1.forward_fixed(x, &mut mid);
        self.conv2.forward_fixed(&mid, out);
        // The shortcut needs no padding: it only feeds the add.
        let mut short = QuantActs::with_buffer(
            ws.take_i16(batch * len * out_c),
            batch,
            out_c,
            len,
            0,
            len,
            x.scale,
        );
        match (self.projection.as_ref(), self.shortcut) {
            (Some(conv), _) => conv.forward_fixed(x, &mut short),
            (None, Some(r)) => {
                // Identity shortcut: rescale the input codes onto the output
                // grid (no clamp asymmetry — the add below applies the ReLU).
                let qmax = ACT_QMAX as i16;
                for b in 0..batch {
                    let src_start = b * x.rows * x.channels + x.pad_left * x.channels;
                    let src = &x.codes[src_start..src_start + len * x.channels];
                    let dst = &mut short.codes[b * len * out_c..(b + 1) * len * out_c];
                    matmul::requantize_codes_into(dst, src, r, -qmax, qmax);
                }
            }
            (None, None) => panic!("set_fixed_point before forward_fixed"),
        }
        // Residual add + final ReLU: both operands are i16 codes on the
        // output grid, so the sum is exact in i32 and the ReLU is the
        // [0, 32767] clamp of the store. Pad rows stay zero (0 + 0).
        for b in 0..batch {
            let dst_start = b * out.rows * out_c + out.pad_left * out_c;
            let dst = &mut out.codes[dst_start..dst_start + len * out_c];
            let s = &short.codes[b * len * out_c..(b + 1) * len * out_c];
            for (d, &sv) in dst.iter_mut().zip(s.iter()) {
                *d = (*d as i32 + sv as i32).clamp(0, ACT_QMAX as i32) as i16;
            }
        }
        ws.recycle_i16(mid.codes);
        ws.recycle_i16(short.codes);
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// The block's quantised GEMM operands in a fixed order:
    /// `conv1, conv2, [projection conv]`.
    pub fn gemms(&self) -> Vec<&QuantizedGemm> {
        let mut gemms = vec![self.conv1.gemm(), self.conv2.gemm()];
        if let Some(conv) = self.projection.as_ref() {
            gemms.push(conv.gemm());
        }
        gemms
    }

    /// Mutable access to the quantised operands (same order as
    /// [`Self::gemms`]).
    pub fn gemms_mut(&mut self) -> Vec<&mut QuantizedGemm> {
        let mut gemms = vec![self.conv1.gemm_mut(), self.conv2.gemm_mut()];
        if let Some(conv) = self.projection.as_mut() {
            gemms.push(conv.gemm_mut());
        }
        gemms
    }
}

impl Layer for QuantizedResidualBlock1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        if training {
            inference_only("QuantizedResidualBlock1d");
        }
        // conv1 carries bn1 + relu1 folded; conv2 carries bn2. Dead
        // intermediates return to the workspace arena immediately.
        let main = self.conv1.forward(input, ws, false);
        let mut sum = forward_consuming(&self.conv2, main, ws, false);
        match self.projection.as_ref() {
            Some(conv) => {
                let proj = conv.forward(input, ws, false);
                sum.add_assign(&proj);
                ws.recycle(proj);
            }
            None => sum.add_assign(input),
        }
        // The final ReLU of the block, in place on the sum.
        relu_in_place(sum.data_mut());
        sum
    }

    fn backward(&mut self, _grad_output: &Tensor, _ws: &mut Workspace) -> Tensor {
        inference_only("QuantizedResidualBlock1d")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn max_abs(v: &[f32]) -> f32 {
        v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    fn assert_quant_close(fast: &Tensor, reference: &Tensor, tol: f32, what: &str) {
        assert_eq!(fast.shape(), reference.shape(), "{what}: shape mismatch");
        let scale = max_abs(reference.data()).max(1.0);
        for (i, (a, b)) in fast.data().iter().zip(reference.data().iter()).enumerate() {
            assert!(
                (a - b).abs() <= tol * scale,
                "{what}: mismatch at {i}: quantised {a} vs f32 {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn quantized_conv_tracks_f32_conv() {
        let mut ws = Workspace::new();
        for &(in_c, out_c, k, len, batch) in
            &[(1usize, 4usize, 3usize, 32usize, 2usize), (2, 3, 9, 40, 3), (3, 2, 4, 16, 1)]
        {
            let conv = Conv1d::new(in_c, out_c, k, 31);
            let qconv = QuantizedConv1d::from_conv(&conv);
            let x = init::uniform(&[batch, in_c, len], -1.0, 1.0, 17);
            let fast = qconv.forward(&x, &mut ws, false);
            let slow = conv.forward(&x, &mut ws, false);
            assert_quant_close(&fast, &slow, 2e-2, &format!("conv {in_c}->{out_c} k{k}"));
        }
    }

    #[test]
    fn folded_conv_tracks_conv_then_bn_then_relu() {
        let mut ws = Workspace::new();
        let conv = Conv1d::new(2, 4, 5, 13);
        let mut bn = BatchNorm1d::new(4);
        // Drive the running stats away from the identity so the fold is
        // non-trivial.
        for seed in 0..8u64 {
            let x = init::uniform(&[2, 4, 12], -2.0, 3.0, seed);
            let y = bn.forward(&x, &mut ws, true);
            let _ = bn.backward(&Tensor::zeros(y.shape()), &mut ws);
        }
        let qconv = QuantizedConv1d::from_conv_folded(&conv, &bn, true);
        assert!(qconv.fused_relu());
        let x = init::uniform(&[2, 2, 24], -1.0, 1.0, 21);
        let fast = qconv.forward(&x, &mut ws, false);
        let conv_out = conv.forward(&x, &mut ws, false);
        let bn_out = bn.forward(&conv_out, &mut ws, false);
        let relu_out =
            Tensor::from_vec(bn_out.data().iter().map(|&v| v.max(0.0)).collect(), bn_out.shape());
        assert_quant_close(&fast, &relu_out, 2e-2, "conv+bn+relu fold");
    }

    #[test]
    fn quantized_linear_tracks_f32_linear() {
        let mut ws = Workspace::new();
        let lin = Linear::new(24, 10, 5);
        let qlin = QuantizedLinear::from_linear(&lin);
        let x = init::uniform(&[6, 24], -2.0, 2.0, 23);
        let fast = qlin.forward(&x, &mut ws, false);
        let slow = lin.forward(&x, &mut ws, false);
        assert_quant_close(&fast, &slow, 2e-2, "linear");
        // Fused-relu variant clamps exactly where the f32 ReLU would.
        let qrelu = QuantizedLinear::from_linear(&lin).with_fused_relu(true);
        let fast_relu = qrelu.forward(&x, &mut ws, false);
        for (a, b) in fast_relu.data().iter().zip(fast.data().iter()) {
            assert_eq!(*a, b.max(0.0));
        }
    }

    #[test]
    fn quantized_residual_block_tracks_f32_block() {
        let mut ws = Workspace::new();
        for (in_c, out_c) in [(4usize, 4usize), (4, 8)] {
            let block = ResidualBlock1d::new(in_c, out_c, 3, 7);
            let qblock = QuantizedResidualBlock1d::from_residual(&block);
            assert_eq!(qblock.out_channels(), out_c);
            let x = init::uniform(&[2, in_c, 20], -1.0, 1.0, 9);
            let fast = qblock.forward(&x, &mut ws, false);
            let slow = block.forward(&x, &mut ws, false);
            assert_quant_close(&fast, &slow, 5e-2, &format!("res {in_c}->{out_c}"));
            let expected_gemms = if in_c == out_c { 2 } else { 3 };
            assert_eq!(qblock.gemms().len(), expected_gemms);
        }
    }

    #[test]
    fn quantized_forward_is_deterministic_and_batch_independent() {
        // Per-item activation scales make every window's score independent
        // of how the batch is composed — the property the sliding-window
        // thread sharding relies on for bit-identical scores.
        let conv = Conv1d::new(1, 3, 5, 3);
        let qconv = QuantizedConv1d::from_conv(&conv);
        let mut ws = Workspace::new();
        let a = init::uniform(&[1, 1, 16], -1.0, 1.0, 1);
        let b = init::uniform(&[1, 1, 16], -1.0, 1.0, 2);
        let mut stacked_data = a.data().to_vec();
        stacked_data.extend_from_slice(b.data());
        let stacked = Tensor::from_vec(stacked_data, &[2, 1, 16]);
        let ya = qconv.forward(&a, &mut ws, false);
        let yb = qconv.forward(&b, &mut ws, false);
        let y2 = qconv.forward(&stacked, &mut ws, false);
        let half = y2.len() / 2;
        assert_eq!(&y2.data()[..half], ya.data());
        assert_eq!(&y2.data()[half..], yb.data());
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn quantized_training_forward_panics() {
        let conv = Conv1d::new(1, 1, 3, 1);
        let qconv = QuantizedConv1d::from_conv(&conv);
        let mut ws = Workspace::new();
        let _ = qconv.forward(&Tensor::zeros(&[1, 1, 8]), &mut ws, true);
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn quantized_backward_panics() {
        let lin = Linear::new(2, 2, 1);
        let mut qlin = QuantizedLinear::from_linear(&lin);
        let mut ws = Workspace::new();
        let _ = qlin.backward(&Tensor::zeros(&[1, 2]), &mut ws);
    }
}
