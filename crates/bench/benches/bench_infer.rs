//! Old (training-forward) vs new (grad-free) inference on the BERT hot
//! path, single and batched, plus per-call heap-allocation counts. Writes
//! `BENCH_infer.json` at the repo root so the perf trajectory is tracked
//! across PRs.
//!
//! Run with `cargo bench --bench bench_infer`. Not a criterion bench: the
//! two paths are compared best-of-N with `Instant`, bit-identity is
//! asserted along the way, and a counting global allocator (linked into
//! this benchmark binary only, never the library) verifies the
//! zero-steady-state-allocation claim of `kamel_nn::infer`.

use kamel_nn::{
    set_backend, supported_backends, BertConfig, BertMlmModel, InferScratch,
    QuantizedBertMlm,
};
use kamel_rng::Rng;
use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator with an allocation counter, for this binary only.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes requested while running `f`.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
        out,
    )
}

/// Best-of-`reps` wall time of `f` in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

fn speedup(old_s: f64, new_s: f64) -> f64 {
    if new_s > 0.0 {
        old_s / new_s
    } else {
        f64::INFINITY
    }
}

/// One scale: single-call old vs new, fused batch vs serial-new, and the
/// steady-state allocation count of the new path.
///
/// Vocabulary sizes are deployment-shaped: a KAMEL pyramid cell's
/// vocabulary is the hex cells of a city region — thousands of tokens, not
/// the dozens the unit tests use. The old path's cost scales with
/// `seq_len × vocab` (it materializes full logits); the masked-row head
/// does not, which is exactly the effect this benchmark exists to track.
fn bench_scale(name: &str, config: BertConfig, seq_len: usize, reps: usize) -> serde_json::Value {
    let vocab = config.vocab_size;
    let seq_len = seq_len.min(config.max_seq_len);
    let mask_pos = seq_len / 2;
    let mut rng = Rng::seed_from_u64(0x1EAF);
    let model = BertMlmModel::new(config, &mut rng);
    let ids: Vec<u32> = (0..seq_len as u32).map(|i| i % vocab as u32).collect();

    // --- Single call: reference training forward vs grad-free path.
    let (old_s, reference) = best_of(reps, || model.predict(&ids, mask_pos));
    let mut scratch = InferScratch::new();
    let _ = model.predict_with(&mut scratch, &ids, mask_pos); // warm the arena
    let (new_s, fast) = best_of(reps, || {
        model.predict_with(&mut scratch, &ids, mask_pos).to_vec()
    });
    assert_eq!(reference, fast, "grad-free path diverged at scale {name}");

    // --- Steady state allocates nothing (warm scratch).
    let (alloc_calls, alloc_bytes, _) =
        count_allocs(|| model.predict_with(&mut scratch, &ids, mask_pos).len());
    assert_eq!(
        alloc_calls, 0,
        "steady-state inference allocated at scale {name} ({alloc_bytes} bytes)"
    );

    // --- Batched: one fused forward vs the same requests serially.
    const BATCH: usize = 8;
    let reqs: Vec<Vec<u32>> = (0..BATCH as u32)
        .map(|j| ids.iter().map(|&t| (t + j) % vocab as u32).collect())
        .collect();
    let views: Vec<(&[u32], usize)> = reqs.iter().map(|r| (r.as_slice(), mask_pos)).collect();
    let _ = model.predict_batch_with(&mut scratch, &views); // warm for batch shapes
    let (serial_s, serial_rows) = best_of(reps, || {
        views
            .iter()
            .map(|(r, p)| model.predict_with(&mut scratch, r, *p).to_vec())
            .collect::<Vec<_>>()
    });
    let (fused_s, fused) = best_of(reps, || {
        model.predict_batch_with(&mut scratch, &views).clone()
    });
    for (i, row) in serial_rows.iter().enumerate() {
        assert_eq!(
            row.as_slice(),
            fused.row(i),
            "fused batch diverged at scale {name}, request {i}"
        );
    }
    let (batch_alloc_calls, _, _) =
        count_allocs(|| model.predict_batch_with(&mut scratch, &views).rows());
    assert_eq!(
        batch_alloc_calls, 0,
        "steady-state batched inference allocated at scale {name}"
    );

    json!({
        "scale": name,
        "vocab": vocab,
        "seq_len": seq_len,
        "old_single_s": old_s,
        "new_single_s": new_s,
        "single_speedup": speedup(old_s, new_s),
        "batch": BATCH,
        "serial_new_s": serial_s,
        "fused_batch_s": fused_s,
        "batch_speedup": speedup(serial_s, fused_s),
        "steady_state_allocs": alloc_calls,
        "steady_state_alloc_bytes": alloc_bytes,
    })
}

/// Index of the highest logit (the serving path's top-1).
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// The SIMD/int8 sweep: single-call inference on every supported backend,
/// f32 and int8, against the scalar-f32 reference. Bit-identity of the f32
/// path across backends is asserted; the int8 path reports its top-1
/// agreement and probability delta against the serving gate
/// (`KamelConfig::quantize_min_agreement`, enforced in `kamel-core` /
/// `kamel-lm`).
///
/// The model is trained for a few steps first: an untrained model's
/// near-uniform logits make top-1 a coin flip between statistical ties,
/// which says nothing about the quantizer. The gate exists for trained,
/// servable models, so that is what the sweep measures.
fn bench_backends(config: BertConfig, seq_len: usize, reps: usize) -> serde_json::Value {
    let vocab = config.vocab_size;
    let seq_len = seq_len.min(config.max_seq_len);
    let mask_pos = seq_len / 2;
    let mut rng = Rng::seed_from_u64(0x51AD);
    let mut model = BertMlmModel::new(config, &mut rng);
    let corpus: Vec<Vec<u32>> = (0..16u32)
        .map(|j| {
            (0..seq_len as u32)
                .map(|i| (i * 37 + j * 101 + 1) % vocab as u32)
                .collect()
        })
        .collect();
    let trainer = kamel_nn::Trainer::new(
        kamel_nn::MlmBatcher::new(0, (1, vocab as u32)),
        kamel_nn::TrainOptions {
            epochs: 8,
            ..Default::default()
        },
    );
    let losses = trainer.train(&mut model, &corpus);
    eprintln!(
        "sweep model trained: loss {:.3} -> {:.3}",
        losses.first().expect("epochs > 0"),
        losses.last().expect("epochs > 0")
    );
    let quant = QuantizedBertMlm::from_model(&model);
    // In-distribution probes: training sequences with one position masked
    // — the serving scenario the agreement gate protects.
    let probes: Vec<(Vec<u32>, usize)> = corpus
        .iter()
        .flat_map(|seq| {
            [seq_len / 6, seq_len / 3, seq_len / 2, (5 * seq_len) / 6].map(|pos| {
                let pos = pos.min(seq_len - 1);
                let mut ids = seq.clone();
                ids[pos] = 0;
                (ids, pos)
            })
        })
        .collect();
    let ids = probes[0].0.clone();

    let backends = supported_backends();
    let mut rows = Vec::new();
    let mut worst_agreement = f64::INFINITY;
    let mut scalar_f32_s = f64::NAN;
    let mut scalar_bits: Vec<u32> = Vec::new();
    for b in &backends {
        set_backend(*b).expect("backend listed as supported");
        let mut scratch = InferScratch::new();
        let _ = model.predict_with(&mut scratch, &ids, mask_pos); // warm
        let (f32_s, f32_out) = best_of(reps, || {
            model.predict_with(&mut scratch, &ids, mask_pos).to_vec()
        });
        let _ = model.predict_quant_with(&quant, &mut scratch, &ids, mask_pos);
        let (int8_s, _) = best_of(reps, || {
            model
                .predict_quant_with(&quant, &mut scratch, &ids, mask_pos)
                .to_vec()
        });
        // f32 bit-identity across backends, int8 top-1 agreement with f32.
        let bits: Vec<u32> = f32_out.iter().map(|v| v.to_bits()).collect();
        if scalar_bits.is_empty() {
            scalar_f32_s = f32_s;
            scalar_bits = bits;
        } else {
            assert_eq!(bits, scalar_bits, "{} f32 diverged from scalar", b.name());
        }
        let mut agree = 0usize;
        let mut l1 = 0.0f64;
        for (probe, pos) in &probes {
            let p_f32 = model.predict_with(&mut scratch, probe, *pos).to_vec();
            let p_int8 = model
                .predict_quant_with(&quant, &mut scratch, probe, *pos)
                .to_vec();
            agree += usize::from(argmax(&p_f32) == argmax(&p_int8));
            l1 += p_f32
                .iter()
                .zip(&p_int8)
                .map(|(a, b)| (a - b).abs() as f64)
                .sum::<f64>();
        }
        worst_agreement = worst_agreement.min(agree as f64 / probes.len() as f64);
        rows.push(json!({
            "backend": b.name(),
            "f32_single_s": f32_s,
            "int8_single_s": int8_s,
            "f32_speedup_vs_scalar": speedup(scalar_f32_s, f32_s),
            "int8_speedup_vs_f32": speedup(f32_s, int8_s),
            "int8_top1_agreement": agree as f64 / probes.len() as f64,
            "int8_mean_l1_prob_delta": l1 / probes.len() as f64,
        }));
    }
    // Leave the process on its auto-detected backend (the best supported
    // one — `supported_backends` lists scalar first).
    let detected = *backends.last().expect("scalar is always supported");
    set_backend(detected).expect("detected backend");
    // The quantizer emits bit-identical codes on every backend, so the
    // agreement is backend-independent; gate it against the serving
    // default from `kamel-core`.
    let gate = kamel::KamelConfig::default().quantize_min_agreement;
    json!({
        "simd_isa": kamel_nn::active_isa(),
        "int8_weight_bytes": quant.weight_bytes(),
        "quantize_min_agreement": gate,
        "int8_within_gate": worst_agreement >= gate,
        "backends": rows,
    })
}

fn main() {
    // Everything measured here runs on the calling thread (`kamel-nn`
    // spawns none), so the host's core count is recorded only for context.
    let host = kamel::available_threads();
    eprintln!("bench_infer: host threads = {host}");
    let tiny = bench_scale("tiny", BertConfig::tiny(2048), 24, 30);
    eprintln!("tiny scale done");
    let small = bench_scale("small", BertConfig::small(8192), 48, 20);
    eprintln!("small scale done");
    let simd = bench_backends(BertConfig::small(8192), 48, 20);
    eprintln!("backend sweep done");
    let doc = json!({
        "bench": "bench_infer",
        "status": "measured",
        "host_threads": host,
        "scales": [tiny, small],
        "simd": simd,
    });
    kamel_bench::write_bench_json("BENCH_infer.json", &doc);
}
