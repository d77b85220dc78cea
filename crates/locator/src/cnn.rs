//! The 1-D ResNet-style CNN binary classifier (Section III-B, Figure 2).
//!
//! Architecture (exactly the block sequence of Figure 2):
//!
//! ```text
//! input [B, 1, N]
//!   └─ Conv1d(1 → f, k) ─ BatchNorm ─ ReLU          (convolutional block)
//!   └─ ResidualBlock(f → f, k)                       (residual block 1)
//!   └─ ResidualBlock(f → 2f, k)                      (residual block 2)
//!   └─ GlobalAvgPool  [B, 2f]
//!   └─ Linear(2f → 2f) ─ ReLU                        (fully connected block)
//!   └─ Linear(2f → 2)                                (class scores / logits)
//! ```
//!
//! The paper uses `f = 16` filters and kernel size 64; the scaled
//! configuration uses `f = 8`, kernel 9 (see [`CnnConfig::scaled`]).
//! The softmax is folded into the cross-entropy loss during training; at
//! inference the *linear* class-1 score (pre-softmax) is used as the sliding
//! window classification signal, as prescribed in Section III-C.
//!
//! The network holds **weights only**: `forward` takes `&self` plus an
//! explicit [`Workspace`], so one trained CNN can score windows from many
//! threads (and many traces) concurrently — each thread brings its own cheap
//! workspace instead of a clone of the weights.
//!
//! Training runs layer by layer (every layer records its backward cache).
//! Inference runs one fused chain ([`tinynn::fused`]): every batch norm is
//! folded into its convolution once per call, each convolution is an
//! im2col-free direct convolution whose epilogue applies the bias, residual
//! add, ReLU and global-pool sum as it stores a tile, and the whole backbone
//! runs for one window before the next. Scores match the layer-by-layer
//! path to within the fold's rounding (a few ulps; see the tests) and are
//! bit-identical for any batch composition and thread count.

use serde::{Deserialize, Serialize};
use tinynn::{
    forward_consuming, BatchNorm1d, Conv1d, GlobalAvgPool1d, Layer, Linear, Param, Relu,
    ResidualBlock1d, Tensor, Workspace,
};

/// Hyper-parameters of the CNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Number of filters of the first convolutional block and the first
    /// residual block (the second residual block doubles it).
    pub base_filters: usize,
    /// Kernel size of every convolution.
    pub kernel_size: usize,
    /// RNG seed for weight initialisation.
    pub seed: u64,
}

impl CnnConfig {
    /// The paper's configuration: 16 filters, kernel size 64.
    pub fn paper() -> Self {
        Self { base_filters: 16, kernel_size: 64, seed: 1 }
    }

    /// CPU-scaled configuration: 8 filters, kernel size 9.
    pub fn scaled() -> Self {
        Self { base_filters: 8, kernel_size: 9, seed: 1 }
    }

    /// Returns a copy with a different initialisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for CnnConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

/// A model that can score batches of trace windows with the linear class-1
/// margin (the `swc` signal of Section III-C).
///
/// Implemented by the `f32` [`CoLocatorCnn`], its quantised counterpart
/// [`crate::qcnn::QuantizedCoLocatorCnn`], and the engine's model wrapper —
/// the sliding-window classifier (and therefore the whole shard fan-out and
/// batching machinery) is generic over this trait, so every scorer shares
/// one inference path.
pub trait WindowScorer: Send + Sync {
    /// Scores a `[B, 1, N]` batch of windows into `scores` (cleared first):
    /// one linear class-1 margin per window.
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>);
}

impl WindowScorer for CoLocatorCnn {
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        self.class1_scores_into(input, ws, scores);
    }
}

/// The CO-locator CNN of Figure 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoLocatorCnn {
    config: CnnConfig,
    conv: Conv1d,
    bn: BatchNorm1d,
    relu: Relu,
    res1: ResidualBlock1d,
    res2: ResidualBlock1d,
    pool: GlobalAvgPool1d,
    fc1: Linear,
    fc_relu: Relu,
    fc2: Linear,
}

impl CoLocatorCnn {
    /// Builds the network from a configuration.
    pub fn new(config: CnnConfig) -> Self {
        let f = config.base_filters;
        let k = config.kernel_size;
        let s = config.seed;
        Self {
            config,
            conv: Conv1d::new(1, f, k, s),
            bn: BatchNorm1d::new(f),
            relu: Relu::new(),
            res1: ResidualBlock1d::new(f, f, k, s.wrapping_add(10)),
            res2: ResidualBlock1d::new(f, 2 * f, k, s.wrapping_add(20)),
            pool: GlobalAvgPool1d::new(),
            fc1: Linear::new(2 * f, 2 * f, s.wrapping_add(30)),
            fc_relu: Relu::new(),
            fc2: Linear::new(2 * f, 2, s.wrapping_add(40)),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Shared access to the network's sub-layers, in forward order:
    /// `(conv, bn, res1, res2, fc1, fc2)`. Used by the quantised network to
    /// mirror the architecture.
    pub(crate) fn parts(
        &self,
    ) -> (&Conv1d, &BatchNorm1d, &ResidualBlock1d, &ResidualBlock1d, &Linear, &Linear) {
        (&self.conv, &self.bn, &self.res1, &self.res2, &self.fc1, &self.fc2)
    }

    /// Forward pass: windows `[B, 1, N]` → class logits `[B, 2]`.
    ///
    /// Shares the weights (`&self`); every piece of per-call state lives in
    /// `ws`, so concurrent callers each pass their own workspace. With
    /// `training == false` the backbone is the fused inference chain (see
    /// [`Self::pooled_features`]).
    pub fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        let x = self.pooled_features(input, ws, training);
        let x = forward_consuming(&self.fc1, x, ws, training);
        let x = forward_consuming(&self.fc_relu, x, ws, training);
        forward_consuming(&self.fc2, x, ws, training)
    }

    /// Runs the convolutional backbone and global average pool only:
    /// windows `[B, 1, N]` → pooled features `[B, F2]`, the exact input the
    /// fully connected head sees. The quantiser compares these against its
    /// own pooled features to fold the quantised backbone's systematic
    /// offset into the head bias.
    ///
    /// Inference (`training == false`) is one fused chain,
    /// [`tinynn::fused::pooled_features`]: batch norms folded, epilogues
    /// fused, one window at a time. Training runs layer by layer so every
    /// layer can record its backward cache.
    pub fn pooled_features(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        if !training {
            return tinynn::fused::pooled_features(
                (&self.conv, &self.bn),
                &[&self.res1, &self.res2],
                input,
                ws,
            );
        }
        // Each dead intermediate returns to the workspace arena as soon as
        // the next layer has consumed it (`forward_consuming`).
        let x = self.conv.forward(input, ws, training);
        let x = forward_consuming(&self.bn, x, ws, training);
        let x = forward_consuming(&self.relu, x, ws, training);
        let x = forward_consuming(&self.res1, x, ws, training);
        let x = forward_consuming(&self.res2, x, ws, training);
        forward_consuming(&self.pool, x, ws, training)
    }

    /// Backward pass for a batch previously run through [`Self::forward`]
    /// with `training == true` on the same workspace.
    pub fn backward(&mut self, grad_logits: &Tensor, ws: &mut Workspace) -> Tensor {
        let g = self.fc2.backward(grad_logits, ws);
        let g = self.fc_relu.backward(&g, ws);
        let g = self.fc1.backward(&g, ws);
        let g = self.pool.backward(&g, ws);
        let g = self.res2.backward(&g, ws);
        let g = self.res1.backward(&g, ws);
        let g = self.relu.backward(&g, ws);
        let g = self.bn.backward(&g, ws);
        self.conv.backward(&g, ws)
    }

    /// Shared access to every trainable parameter, in a fixed architecture
    /// order (matching [`Self::params_mut`] — the model persistence format
    /// relies on this order).
    pub fn params(&self) -> Vec<&Param> {
        let mut params = Vec::new();
        params.extend(self.conv.params());
        params.extend(self.bn.params());
        params.extend(self.res1.params());
        params.extend(self.res2.params());
        params.extend(self.fc1.params());
        params.extend(self.fc2.params());
        params
    }

    /// Mutable access to every trainable parameter (same order as
    /// [`Self::params`]).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.conv.params_mut());
        params.extend(self.bn.params_mut());
        params.extend(self.res1.params_mut());
        params.extend(self.res2.params_mut());
        params.extend(self.fc1.params_mut());
        params.extend(self.fc2.params_mut());
        params
    }

    /// Shared access to every non-trainable state buffer (batch-norm running
    /// statistics), in a fixed order matching [`Self::buffers_mut`].
    pub fn buffers(&self) -> Vec<&[f32]> {
        let mut buffers = Vec::new();
        buffers.extend(self.bn.buffers());
        buffers.extend(self.res1.buffers());
        buffers.extend(self.res2.buffers());
        buffers
    }

    /// Mutable access to every non-trainable state buffer (same order as
    /// [`Self::buffers`]).
    pub fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut buffers = Vec::new();
        buffers.extend(self.bn.buffers_mut());
        buffers.extend(self.res1.buffers_mut());
        buffers.extend(self.res2.buffers_mut());
        buffers
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Classifies a batch of windows, returning the predicted class index per
    /// window (0 = not start, 1 = cipher start).
    pub fn predict(&self, input: &Tensor, ws: &mut Workspace) -> Vec<usize> {
        let mut preds = Vec::new();
        self.predict_into(input, ws, &mut preds);
        preds
    }

    /// Like [`Self::predict`], but writes into a caller-owned buffer so batch
    /// loops allocate nothing per call. `preds` is cleared first.
    pub fn predict_into(&self, input: &Tensor, ws: &mut Workspace, preds: &mut Vec<usize>) {
        let logits = self.forward(input, ws, false);
        preds.clear();
        preds.reserve(logits.shape()[0]);
        for row in logits.data().chunks(logits.shape()[1]) {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = i;
                }
            }
            preds.push(best);
        }
        ws.recycle(logits);
    }

    /// Scores a batch of windows with the *linear* (pre-softmax) class-1
    /// output, the signal used by the sliding-window classification stage
    /// (Section III-C).
    pub fn class1_scores(&self, input: &Tensor, ws: &mut Workspace) -> Vec<f32> {
        let mut scores = Vec::new();
        self.class1_scores_into(input, ws, &mut scores);
        scores
    }

    /// Like [`Self::class1_scores`], but writes into a caller-owned buffer so
    /// the sliding-window loop allocates nothing per batch. `scores` is
    /// cleared first.
    pub fn class1_scores_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        let logits = self.forward(input, ws, false);
        scores.clear();
        scores.reserve(logits.shape()[0]);
        for b in 0..logits.shape()[0] {
            scores.push(logits.at2(b, 1) - logits.at2(b, 0));
        }
        ws.recycle(logits);
    }

    /// Bytes of workspace scratch one scoring thread retains after
    /// [`Self::class1_scores_into`] on `batch` windows of `len` samples,
    /// including the `[batch, 1, len]` input staged in the same workspace by
    /// the sliding-window classifier: the fused backbone's buffers
    /// ([`tinynn::fused::scratch_bytes`]; the head packs its weights into
    /// the same, larger buffer) plus the arena tensors of the input and of
    /// the pooled features and head activations, of which at most three
    /// are live at once.
    pub(crate) fn workspace_bytes(&self, batch: usize, len: usize) -> usize {
        let tensor = |elems: usize, dims: usize| elems * 4 + dims * std::mem::size_of::<usize>();
        let backbone = (&self.conv, &self.bn);
        tinynn::fused::scratch_bytes(backbone, &[&self.res1, &self.res2], len, 1)
            + tensor(batch * len, 3)
            + 3 * tensor(batch * self.res2.out_channels(), 2)
    }

    /// Inference forward pass with every convolution and fully connected
    /// layer routed through its naive scalar reference implementation — the
    /// computational profile of the pre-GEMM seed. Used by throughput
    /// benchmarks and parity tests.
    pub fn forward_reference(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self.conv.forward_reference(input);
        let x = self.bn.forward(&x, ws, false);
        let x = self.relu.forward(&x, ws, false);
        let x = self.res1.forward_reference(&x, ws);
        let x = self.res2.forward_reference(&x, ws);
        let x = self.pool.forward(&x, ws, false);
        let x = self.fc1.forward_reference(&x);
        let x = self.fc_relu.forward(&x, ws, false);
        self.fc2.forward_reference(&x)
    }

    /// [`Self::class1_scores`] on top of [`Self::forward_reference`].
    pub fn class1_scores_reference(&self, input: &Tensor, ws: &mut Workspace) -> Vec<f32> {
        let logits = self.forward_reference(input, ws);
        (0..logits.shape()[0]).map(|b| logits.at2(b, 1) - logits.at2(b, 0)).collect()
    }

    /// Builds the `[B, 1, N]` input tensor from raw windows.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or the windows have different lengths.
    pub fn stack_windows(windows: &[Vec<f32>]) -> Tensor {
        assert!(!windows.is_empty(), "cannot stack zero windows");
        let n = windows[0].len();
        assert!(windows.iter().all(|w| w.len() == n), "windows must share one length");
        let flat: Vec<f32> = windows.iter().flatten().copied().collect();
        Tensor::from_vec(flat, &[windows.len(), 1, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CnnConfig {
        CnnConfig { base_filters: 2, kernel_size: 3, seed: 7 }
    }

    #[test]
    fn forward_shapes() {
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&[vec![0.1; 32], vec![-0.2; 32], vec![0.0; 32]]);
        let logits = cnn.forward(&x, &mut ws, true);
        ws.clear();
        assert_eq!(logits.shape(), &[3, 2]);
    }

    #[test]
    fn global_average_pooling_supports_different_window_lengths() {
        // The same network must accept N_train- and N_inf-sized windows
        // (Section III-B / IV-B).
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let train = CoLocatorCnn::stack_windows(&[vec![0.5; 40]]);
        let infer = CoLocatorCnn::stack_windows(&[vec![0.5; 24]]);
        assert_eq!(cnn.forward(&train, &mut ws, false).shape(), &[1, 2]);
        assert_eq!(cnn.forward(&infer, &mut ws, false).shape(), &[1, 2]);
    }

    #[test]
    fn param_count_grows_with_filters() {
        let small = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 1 });
        let big = CoLocatorCnn::new(CnnConfig { base_filters: 4, kernel_size: 3, seed: 1 });
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    fn params_and_params_mut_agree_in_order() {
        let mut cnn = CoLocatorCnn::new(tiny_config());
        let shapes: Vec<Vec<usize>> =
            cnn.params().iter().map(|p| p.value.shape().to_vec()).collect();
        let shapes_mut: Vec<Vec<usize>> =
            cnn.params_mut().iter().map(|p| p.value.shape().to_vec()).collect();
        assert_eq!(shapes, shapes_mut);
        let buf_lens: Vec<usize> = cnn.buffers().iter().map(|b| b.len()).collect();
        let buf_lens_mut: Vec<usize> = cnn.buffers_mut().iter().map(|b| b.len()).collect();
        assert_eq!(buf_lens, buf_lens_mut);
        // 3 BatchNorm layers outside projections + 1 projection BN (res2
        // changes the channel count), 2 buffers each.
        assert_eq!(buf_lens.len(), 2 * 6);
    }

    #[test]
    fn paper_config_matches_figure2() {
        let c = CnnConfig::paper();
        assert_eq!(c.base_filters, 16);
        assert_eq!(c.kernel_size, 64);
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&[vec![0.3; 16], vec![-0.3; 16]]);
        let logits = cnn.forward(&x, &mut ws, true);
        cnn.zero_grad();
        let grad =
            cnn.backward(&Tensor::from_vec(vec![1.0, -1.0, 0.5, -0.5], logits.shape()), &mut ws);
        assert_eq!(grad.shape(), x.shape());
        assert_eq!(ws.cache_depth(), 0, "backward must consume every layer cache");
        // Some parameter gradient must be non-zero.
        let any_nonzero = cnn.params().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(any_nonzero);
    }

    #[test]
    fn class1_scores_orders_like_softmax_probability() {
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&[vec![0.9; 20], vec![-0.9; 20]]);
        let scores = cnn.class1_scores(&x, &mut ws);
        let logits = cnn.forward(&x, &mut ws, false);
        // The window with the larger class-1 margin also has the larger softmax probability.
        let p = |b: usize| {
            let row = logits.row(b);
            let m = row[1].max(row[0]);
            let e0 = (row[0] - m).exp();
            let e1 = (row[1] - m).exp();
            e1 / (e0 + e1)
        };
        if scores[0] > scores[1] {
            assert!(p(0) >= p(1));
        } else {
            assert!(p(1) >= p(0));
        }
    }

    #[test]
    #[should_panic(expected = "cannot stack zero windows")]
    fn stacking_no_windows_panics() {
        CoLocatorCnn::stack_windows(&[]);
    }

    #[test]
    fn predictions_are_binary() {
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&vec![vec![0.0; 16]; 5]);
        let preds = cnn.predict(&x, &mut ws);
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn inference_forward_is_allocation_free_after_warmup() {
        // The output-activation arena contract: once the workspace has seen
        // the batch shape, repeated forwards must neither allocate (the
        // arena-miss counter freezes) nor grow any retained scratch buffer.
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&vec![vec![0.25; 32]; 4]);
        let mut scores = Vec::new();
        for _ in 0..2 {
            cnn.class1_scores_into(&x, &mut ws, &mut scores);
        }
        let misses = ws.arena_misses();
        let retained = ws.retained_bytes();
        for _ in 0..10 {
            cnn.class1_scores_into(&x, &mut ws, &mut scores);
        }
        assert_eq!(ws.arena_misses(), misses, "steady-state forward must not allocate");
        assert_eq!(ws.retained_bytes(), retained, "steady-state forward must not grow scratch");
    }

    /// The layer-by-layer inference path the fused chain replaced.
    fn unfused_scores(cnn: &CoLocatorCnn, x: &Tensor) -> Vec<f32> {
        let mut ws = Workspace::new();
        let h = cnn.conv.forward(x, &mut ws, false);
        let h = forward_consuming(&cnn.bn, h, &mut ws, false);
        let mut h = forward_consuming(&cnn.relu, h, &mut ws, false);
        for layer in
            [&cnn.res1 as &dyn Layer, &cnn.res2, &cnn.pool, &cnn.fc1, &cnn.fc_relu, &cnn.fc2]
        {
            h = forward_consuming(layer, h, &mut ws, false);
        }
        (0..h.shape()[0]).map(|b| h.at2(b, 1) - h.at2(b, 0)).collect()
    }

    #[test]
    fn fused_scores_match_the_unfused_layers() {
        // Trained-looking batch norms: non-trivial running statistics and
        // affine parameters in every layer.
        let mut cnn = CoLocatorCnn::new(CnnConfig::scaled());
        for (i, b) in cnn.buffers_mut().into_iter().enumerate() {
            let (lo, hi) = if i % 2 == 0 { (-0.4, 0.4) } else { (0.2, 3.0) };
            let v = tinynn::init::uniform(&[b.len()], lo, hi, 50 + i as u64);
            b.copy_from_slice(v.data());
        }
        for (i, p) in cnn.params_mut().into_iter().enumerate() {
            if p.value.shape().len() == 1 {
                let v = tinynn::init::uniform(p.value.shape(), 0.5, 1.5, 90 + i as u64);
                p.value.data_mut().copy_from_slice(v.data());
            }
        }
        let windows: Vec<Vec<f32>> = (0..16)
            .map(|w| (0..209).map(|i| ((i * (w + 2)) as f32 * 0.037).sin() * 1.7).collect())
            .collect();
        let x = CoLocatorCnn::stack_windows(&windows);
        let want = unfused_scores(&cnn, &x);
        let got = cnn.class1_scores(&x, &mut Workspace::new());
        // Measured: max |fused - unfused| = 7.6e-6 over these windows, with
        // |score| up to 1.82 — the fold's few-ulp feature rounding, widened
        // by the head and the logit difference. The bound leaves ~2.6x
        // headroom.
        const BOUND: f32 = 2e-5;
        for (w, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() <= BOUND, "window {w}: fused {a} vs unfused {b}");
        }
    }

    #[test]
    fn workspace_estimate_covers_the_warm_workspace() {
        let cnn = CoLocatorCnn::new(CnnConfig::scaled());
        let (batch, len) = (64, 209);
        // One scoring shard: its CNN calls stay on the shard's thread.
        let _serial = tinynn::parallel::serial_region();
        let mut ws = Workspace::new();
        let mut scores = Vec::new();
        for _ in 0..2 {
            // Stage the batch in the workspace like the sliding classifier.
            let x = ws.uninit_tensor(&[batch, 1, len]);
            cnn.class1_scores_into(&x, &mut ws, &mut scores);
            ws.recycle(x);
        }
        let retained = ws.retained_bytes();
        let estimate = cnn.workspace_bytes(batch, len);
        assert!(retained <= estimate && estimate <= 2 * retained, "{retained} vs {estimate}");
    }

    #[test]
    fn shared_cnn_scores_identically_across_threads() {
        // One CNN instance, several threads, per-thread workspaces: the
        // scores must be bit-identical to the single-threaded ones.
        let cnn = CoLocatorCnn::new(tiny_config());
        let x = CoLocatorCnn::stack_windows(&[vec![0.4; 24], vec![-0.1; 24]]);
        let mut ws = Workspace::new();
        let expected = cnn.class1_scores(&x, &mut ws);
        let cnn_ref = &cnn;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let x = x.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    let mut ws = Workspace::new();
                    assert_eq!(cnn_ref.class1_scores(&x, &mut ws), expected);
                });
            }
        });
    }
}
