//! Per-request layer costs for the traced run. Each timing wraps calls
//! into one layer's public functions, on one thread, over the windows a
//! chronological pass produces; none of it runs inside the service.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use rsd_common::Timestamp;
use rsd_dataset::{StoreItem, UserWindowStore, WindowBuffer};
use rsd_models::{PlmScratch, ScoringModel, ServeModel};
use rsd_serve::{IncomingPost, ServeConfig};

/// Mean nanoseconds per request in each layer a request passes through.
pub struct LayerCosts {
    /// `UserWindowStore::apply`.
    pub window_apply_ns: f64,
    /// GBDT: `FeatureExtractor::transform_stream_into`;
    /// PLM: `PlmInferenceModel::encode_stream`.
    pub featurize_ns: f64,
    /// GBDT: `Booster::predict_row`; PLM: `PlmInferenceModel::score`
    /// on the int8 kernels.
    pub predict_ns: f64,
    /// Requests timed for `featurize_ns` and `predict_ns`.
    pub requests: usize,
    /// Share of a pass's requests that arrive with a full window.
    pub full_window_share: f64,
}

/// Window contents after each post of `pass`: (pass indices, timestamps,
/// posts seen), as the serving store would hand them to the scorer.
fn windows_after_each_post(
    pass: &[IncomingPost],
    window: usize,
) -> Vec<(Vec<usize>, Vec<Timestamp>, usize)> {
    let mut buffers: HashMap<u32, WindowBuffer<usize>> = HashMap::new();
    pass.iter()
        .enumerate()
        .map(|(i, p)| {
            let buf = buffers
                .entry(p.user)
                .or_insert_with(|| WindowBuffer::new(window));
            buf.observe(p.created, p.post, i);
            (
                buf.entries().iter().map(|e| e.payload).collect(),
                buf.timestamps(),
                buf.total_seen() as usize,
            )
        })
        .collect()
}

/// Time each layer over one pass; featurize and predict over every
/// `stride`-th request.
pub fn measure(model: &ScoringModel, pass: &[IncomingPost], stride: usize) -> LayerCosts {
    let window = model.window();
    let cfg = ServeConfig::default();
    let items: Vec<StoreItem<String>> = pass
        .iter()
        .map(|p| StoreItem {
            user: p.user,
            created: p.created,
            id: p.post,
            payload: p.text.clone(),
        })
        .collect();
    let mut store = UserWindowStore::new(cfg.shards, window, cfg.lru_capacity);
    let t = Instant::now();
    for item in items {
        store.apply(item);
    }
    let window_apply_ns = t.elapsed().as_nanos() as f64 / pass.len() as f64;
    black_box(&store);

    let windows = windows_after_each_post(pass, window);
    let full = windows
        .iter()
        .filter(|(idx, _, _)| idx.len() == window)
        .count();
    let requests: Vec<(Vec<&str>, Vec<Timestamp>, usize)> = windows
        .into_iter()
        .step_by(stride.max(1))
        .map(|(idx, stamps, seen)| {
            let texts = idx.iter().map(|&i| pass[i].text.as_str()).collect();
            (texts, stamps, seen)
        })
        .collect();
    let per_request = |t: Instant| t.elapsed().as_nanos() as f64 / requests.len() as f64;

    let (featurize_ns, predict_ns) = match model.model() {
        ServeModel::Gbdt => {
            let extractor = model.extractor();
            let mut row = Vec::new();
            let t = Instant::now();
            for (texts, stamps, seen) in &requests {
                extractor.transform_stream_into(texts, stamps, *seen, &mut row);
                black_box(&row);
            }
            let featurize_ns = per_request(t);
            let rows: Vec<Vec<f32>> = requests
                .iter()
                .map(|(texts, stamps, seen)| {
                    let mut row = Vec::new();
                    extractor.transform_stream_into(texts, stamps, *seen, &mut row);
                    row
                })
                .collect();
            let booster = model.booster();
            let t = Instant::now();
            for row in &rows {
                black_box(booster.predict_row(row));
            }
            (featurize_ns, per_request(t))
        }
        ServeModel::PlmF32 | ServeModel::PlmInt8 => {
            let engine = model.plm_engine().expect("PLM artifact");
            let t = Instant::now();
            let encoded: Vec<_> = requests
                .iter()
                .map(|(texts, stamps, _)| engine.encode_stream(texts, stamps))
                .collect();
            let featurize_ns = per_request(t);
            let quantized = model.model().quantized();
            let mut scratch = PlmScratch::default();
            let t = Instant::now();
            for enc in &encoded {
                black_box(engine.score(enc, quantized, &mut scratch));
            }
            (featurize_ns, per_request(t))
        }
    };
    LayerCosts {
        window_apply_ns,
        featurize_ns,
        predict_ns,
        requests: requests.len(),
        full_window_share: full as f64 / pass.len() as f64,
    }
}
