//! Synthetic sparse-model workload (substitute for the paper's "sparse
//! personalized models", §2).
//!
//! The paper's motivating example is model serving where per-user sparse
//! models must be deserialized and loaded into memory *at request time*,
//! consuming "as much as 70% of the processing time" (citing TrIMS). This
//! module provides:
//!
//! - a deterministic generator for sparse models (CSR layers + pointer-rich
//!   metadata: named layers, an interned vocabulary, a row index),
//! - a real serializer/deserializer over [`crate::codec`],
//! - a *load* step that rebuilds the pointer-rich working form (this is the
//!   part invariant pointers eliminate), and
//! - an inference kernel (sparse matrix–vector product) as the useful work.
//!
//! Every step charges a [`CostMeter`] so the S1 experiment can report the
//! phase breakdown deterministically, with no wall clock anywhere in the
//! figure.

use rdv_det::DetMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::buf::{WireReader, WireWriter};
use crate::codec::{Decode, Encode};
use crate::cost::{CostMeter, Phase};
use crate::error::{WireError, WireResult};

/// Parameters for generating a synthetic sparse model.
#[derive(Debug, Clone, Copy)]
pub struct SparseModelSpec {
    /// Number of sparse layers.
    pub layers: usize,
    /// Rows per layer (output dimension).
    pub rows: usize,
    /// Columns per layer (input dimension).
    pub cols: usize,
    /// Nonzeros per row (sparsity).
    pub nnz_per_row: usize,
    /// Entries in the personalization vocabulary (interned strings).
    pub vocab: usize,
    /// RNG seed — same seed, same model, bit for bit.
    pub seed: u64,
}

impl Default for SparseModelSpec {
    fn default() -> Self {
        SparseModelSpec { layers: 4, rows: 1024, cols: 1024, nnz_per_row: 16, vocab: 256, seed: 7 }
    }
}

impl SparseModelSpec {
    /// Total nonzeros across all layers.
    pub fn total_nnz(&self) -> usize {
        self.layers * self.rows * self.nnz_per_row
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
    /// Row start offsets into `col_idx`/`values` (`rows + 1` entries).
    pub row_ptr: Vec<u32>,
    /// Column index of each nonzero.
    pub col_idx: Vec<u32>,
    /// Value of each nonzero.
    pub values: Vec<f32>,
}

impl Csr {
    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Validate structural invariants (monotone row_ptr, in-range columns).
    pub fn validate(&self) -> bool {
        if self.row_ptr.len() != self.rows as usize + 1 {
            return false;
        }
        if self.col_idx.len() != self.values.len() {
            return false;
        }
        if self.row_ptr.first() != Some(&0)
            || self.row_ptr.last() != Some(&(self.values.len() as u32))
        {
            return false;
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        self.col_idx.iter().all(|&c| c < self.cols)
    }

    /// y = A·x (dense input, dense output).
    #[allow(clippy::needless_range_loop)] // r indexes row_ptr AND y in lockstep
    pub fn spmv(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols as usize);
        debug_assert_eq!(y.len(), self.rows as usize);
        for r in 0..self.rows as usize {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0f32;
            for k in start..end {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[r] = acc;
        }
    }
}

/// One named sparse layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLayer {
    /// Layer name (pointer-rich metadata the codec must walk).
    pub name: String,
    /// The sparse weight matrix.
    pub weights: Csr,
    /// Dense bias vector (`rows` entries).
    pub bias: Vec<f32>,
}

/// A complete personalized sparse model.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseModel {
    /// Model identity (per-user personalization tag).
    pub name: String,
    /// Monotonically increasing version.
    pub version: u64,
    /// Interned personalization vocabulary.
    pub vocab: Vec<String>,
    /// The layers, applied in order.
    pub layers: Vec<SparseLayer>,
}

impl SparseModel {
    /// Deterministically generate a model from `spec`.
    pub fn generate(spec: &SparseModelSpec) -> SparseModel {
        let mut rng = StdRng::seed_from_u64(spec.seed); // rdv-lint: allow(rng-stream) -- sparse-model generator stream, derived from the model spec's own seed field
        let vocab = (0..spec.vocab).map(|i| format!("feat_{i}_{:08x}", rng.gen::<u32>())).collect();
        let layers = (0..spec.layers)
            .map(|l| {
                let mut row_ptr = Vec::with_capacity(spec.rows + 1);
                let mut col_idx = Vec::with_capacity(spec.rows * spec.nnz_per_row);
                let mut values = Vec::with_capacity(spec.rows * spec.nnz_per_row);
                row_ptr.push(0u32);
                for _ in 0..spec.rows {
                    for _ in 0..spec.nnz_per_row {
                        col_idx.push(rng.gen_range(0..spec.cols as u32));
                        values.push(rng.gen_range(-1.0f32..1.0));
                    }
                    row_ptr.push(col_idx.len() as u32);
                }
                SparseLayer {
                    name: format!("layer_{l}"),
                    weights: Csr {
                        rows: spec.rows as u32,
                        cols: spec.cols as u32,
                        row_ptr,
                        col_idx,
                        values,
                    },
                    bias: (0..spec.rows).map(|_| rng.gen_range(-0.1f32..0.1)).collect(),
                }
            })
            .collect();
        SparseModel {
            name: format!("user_model_{:016x}", rng.gen::<u64>()),
            version: 1,
            vocab,
            layers,
        }
    }

    /// Total nonzeros.
    pub fn total_nnz(&self) -> usize {
        self.layers.iter().map(|l| l.weights.nnz()).sum()
    }

    /// Approximate in-memory footprint in bytes (for transfer accounting).
    pub fn approx_bytes(&self) -> u64 {
        let mut total = self.name.len() as u64 + 8;
        total += self.vocab.iter().map(|v| v.len() as u64 + 24).sum::<u64>();
        for l in &self.layers {
            total += l.name.len() as u64 + 24;
            total += (l.weights.row_ptr.len() * 4
                + l.weights.col_idx.len() * 4
                + l.weights.values.len() * 4
                + l.bias.len() * 4) as u64;
        }
        total
    }
}

impl Encode for Csr {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.rows);
        w.put_u32(self.cols);
        self.row_ptr.encode(w);
        self.col_idx.encode(w);
        self.values.encode(w);
    }
    fn encoded_len_hint(&self) -> usize {
        8 + self.row_ptr.len() * 5 + self.col_idx.len() * 5 + self.values.len() * 4
    }
}

impl Decode for Csr {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let rows = r.get_u32()?;
        let cols = r.get_u32()?;
        let csr = Csr {
            rows,
            cols,
            row_ptr: Vec::<u32>::decode(r)?,
            col_idx: Vec::<u32>::decode(r)?,
            values: Vec::<f32>::decode(r)?,
        };
        if !csr.validate() {
            return Err(WireError::InvalidTag { tag: 0, ty: "Csr (invariants)" });
        }
        Ok(csr)
    }
}

impl Encode for SparseLayer {
    fn encode(&self, w: &mut WireWriter) {
        self.name.encode(w);
        self.weights.encode(w);
        self.bias.encode(w);
    }
    fn encoded_len_hint(&self) -> usize {
        self.name.len() + self.weights.encoded_len_hint() + self.bias.len() * 4 + 8
    }
}

impl Decode for SparseLayer {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(SparseLayer {
            name: String::decode(r)?,
            weights: Csr::decode(r)?,
            bias: Vec::<f32>::decode(r)?,
        })
    }
}

impl Encode for SparseModel {
    fn encode(&self, w: &mut WireWriter) {
        self.name.encode(w);
        w.put_uvarint(self.version);
        self.vocab.encode(w);
        self.layers.encode(w);
    }
    fn encoded_len_hint(&self) -> usize {
        self.approx_bytes() as usize + 64
    }
}

impl Decode for SparseModel {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(SparseModel {
            name: String::decode(r)?,
            version: r.get_uvarint()?,
            vocab: Vec::<String>::decode(r)?,
            layers: Vec::<SparseLayer>::decode(r)?,
        })
    }
}

/// The pointer-rich *working form* rebuilt at load time.
///
/// This is what the "load" phase of a model server produces: interned vocab
/// lookup, per-layer row index, layer name table. In the global-object-space
/// design this structure lives inside an object with invariant pointers and
/// needs no rebuilding after a byte copy.
#[derive(Debug)]
pub struct LoadedModel {
    /// The decoded model (owned).
    pub model: SparseModel,
    /// vocab string → index.
    pub vocab_index: DetMap<String, u32>,
    /// layer name → index.
    pub layer_index: DetMap<String, u32>,
}

impl LoadedModel {
    /// Run inference: apply each layer (SpMV + bias + ReLU) in order.
    pub fn infer(&self, activation: &[f32], meter: &mut CostMeter) -> Vec<f32> {
        let mut x = activation.to_vec();
        for layer in &self.model.layers {
            let mut y = vec![0.0f32; layer.weights.rows as usize];
            layer.weights.spmv(&x, &mut y);
            for (yi, b) in y.iter_mut().zip(&layer.bias) {
                *yi = (*yi + b).max(0.0);
            }
            // 2 flops per nonzero at ~1 ns per 4 flops on a scalar core.
            meter.charge_direct_ns(Phase::Compute, (layer.weights.nnz() as u64 * 2) / 4 + 1);
            x = y;
        }
        x
    }
}

/// Serialize `model`, charging the Serialize phase of `meter`.
pub fn serialize_model(model: &SparseModel, meter: &mut CostMeter) -> Vec<u8> {
    let bytes = crate::codec::encode_to_vec(model);
    meter.charge_bytes(Phase::Serialize, bytes.len() as u64);
    // Struct walk: one element visit per nonzero + per vocab entry.
    meter.charge_elems(Phase::Serialize, model.total_nnz() as u64 + model.vocab.len() as u64);
    bytes
}

/// Deserialize a model, charging the Deserialize phase of `meter`.
pub fn deserialize_model(bytes: &[u8], meter: &mut CostMeter) -> WireResult<SparseModel> {
    let model: SparseModel = crate::codec::decode_from_slice(bytes)?;
    meter.charge_bytes(Phase::Deserialize, bytes.len() as u64);
    meter.charge_elems(Phase::Deserialize, model.total_nnz() as u64 + model.vocab.len() as u64);
    // One allocation per vector/string the decoder materialized.
    let allocs = 4 * model.layers.len() as u64 + model.vocab.len() as u64 + 2;
    meter.charge_allocs(Phase::Deserialize, allocs);
    Ok(model)
}

/// Build the working form, charging the Load phase of `meter`.
pub fn load_model(model: SparseModel, meter: &mut CostMeter) -> LoadedModel {
    let mut vocab_index = DetMap::with_capacity(model.vocab.len());
    for (i, v) in model.vocab.iter().enumerate() {
        vocab_index.insert(v.clone(), i as u32);
    }
    let mut layer_index = DetMap::with_capacity(model.layers.len());
    for (i, l) in model.layers.iter().enumerate() {
        layer_index.insert(l.name.clone(), i as u32);
    }
    // Loading = one fix-up per interned entry (hash insert ≈ pointer
    // swizzle) + per-row index verification touch.
    meter.charge_fixups(Phase::Load, model.vocab.len() as u64 + model.layers.len() as u64);
    meter.charge_allocs(Phase::Load, model.vocab.len() as u64 + model.layers.len() as u64 + 2);
    let row_touches: u64 = model.layers.iter().map(|l| l.weights.rows as u64).sum();
    meter.charge_elems(Phase::Load, row_touches);
    LoadedModel { model, vocab_index, layer_index }
}

/// Cost of moving the same model as a flat byte copy of its object (the
/// global-address-space path): transfer only — *zero* serialize/deserialize/
/// load work, because invariant pointers remain valid after the copy.
pub fn flat_copy_model(model: &SparseModel, meter: &mut CostMeter) -> u64 {
    let bytes = model.approx_bytes();
    meter.charge_bytes(Phase::Transfer, bytes);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SparseModelSpec {
        SparseModelSpec { layers: 2, rows: 32, cols: 32, nnz_per_row: 4, vocab: 16, seed: 42 }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SparseModel::generate(&small_spec());
        let b = SparseModel::generate(&small_spec());
        assert_eq!(a, b);
        let c = SparseModel::generate(&SparseModelSpec { seed: 43, ..small_spec() });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_csr_is_valid() {
        let m = SparseModel::generate(&small_spec());
        for l in &m.layers {
            assert!(l.weights.validate(), "layer {}", l.name);
            assert_eq!(l.bias.len(), l.weights.rows as usize);
        }
        assert_eq!(m.total_nnz(), small_spec().total_nnz());
    }

    #[test]
    fn serialize_deserialize_roundtrip() {
        let m = SparseModel::generate(&small_spec());
        let mut meter = CostMeter::new();
        let bytes = serialize_model(&m, &mut meter);
        let back = deserialize_model(&bytes, &mut meter).unwrap();
        assert_eq!(m, back);
        assert!(meter.phase_ns(Phase::Serialize) > 0);
        assert!(meter.phase_ns(Phase::Deserialize) > 0);
    }

    #[test]
    fn corrupt_csr_rejected_on_decode() {
        let m = SparseModel::generate(&small_spec());
        let mut meter = CostMeter::new();
        let mut bytes = serialize_model(&m, &mut meter);
        // Smash a region in the middle; either decode errors or invariants
        // catch it — it must never return a structurally invalid Csr.
        let mid = bytes.len() / 2;
        for b in &mut bytes[mid..mid + 16] {
            *b = 0xff;
        }
        match deserialize_model(&bytes, &mut meter) {
            Err(_) => {}
            Ok(m) => {
                for l in &m.layers {
                    assert!(l.weights.validate());
                }
            }
        }
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let csr = Csr {
            rows: 2,
            cols: 3,
            row_ptr: vec![0, 2, 3],
            col_idx: vec![0, 2, 1],
            values: vec![1.0, 2.0, 3.0],
        };
        assert!(csr.validate());
        let x = [1.0, 10.0, 100.0];
        let mut y = [0.0; 2];
        csr.spmv(&x, &mut y);
        assert_eq!(y, [201.0, 30.0]);
    }

    #[test]
    fn inference_runs_end_to_end() {
        let m = SparseModel::generate(&small_spec());
        let mut meter = CostMeter::new();
        let loaded = load_model(m, &mut meter);
        let activation = vec![1.0f32; 32];
        let out = loaded.infer(&activation, &mut meter);
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|v| *v >= 0.0), "ReLU output nonnegative");
        assert!(meter.phase_ns(Phase::Compute) > 0);
    }

    #[test]
    fn load_phase_dominated_by_interning() {
        let m = SparseModel::generate(&small_spec());
        let mut meter = CostMeter::new();
        let loaded = load_model(m, &mut meter);
        assert_eq!(loaded.vocab_index.len(), 16);
        assert_eq!(loaded.layer_index.len(), 2);
        assert!(meter.counters(Phase::Load).fixups >= 18);
    }

    #[test]
    fn flat_copy_charges_transfer_only() {
        let m = SparseModel::generate(&small_spec());
        let mut meter = CostMeter::new();
        let n = flat_copy_model(&m, &mut meter);
        assert_eq!(n, m.approx_bytes());
        assert_eq!(meter.phase_ns(Phase::Serialize), 0);
        assert_eq!(meter.phase_ns(Phase::Deserialize), 0);
        assert_eq!(meter.phase_ns(Phase::Load), 0);
        assert!(meter.phase_ns(Phase::Transfer) > 0);
    }

    #[test]
    fn rpc_path_deser_load_dominates_at_scale() {
        // The S1 shape: for request-time model loading, deserialize+load is
        // the majority of non-transfer processing time.
        let spec = SparseModelSpec {
            layers: 4,
            rows: 512,
            cols: 512,
            nnz_per_row: 8,
            vocab: 512,
            seed: 1,
        };
        let m = SparseModel::generate(&spec);
        let mut meter = CostMeter::new();
        let bytes = serialize_model(&m, &mut meter);
        let decoded = deserialize_model(&bytes, &mut meter).unwrap();
        let loaded = load_model(decoded, &mut meter);
        let activation = vec![0.5f32; 512];
        loaded.infer(&activation, &mut meter);
        let b = meter.breakdown();
        assert!(
            b.deser_load_fraction() > 0.5,
            "deser+load fraction was {}",
            b.deser_load_fraction()
        );
    }
}
