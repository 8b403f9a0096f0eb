//! End-to-end model store tests: pack → open → materialize must serve
//! byte-identical predictions vs. the heap repository it was packed
//! from, under a byte budget smaller than the full model set; and every
//! corruption mode must fail loudly at open or materialize, never
//! silently serve damaged weights.

use kamel::checkpoint::faults::{Fault, FaultyIo};
use kamel::checkpoint::write_atomic_with;
use kamel::{Kamel, KamelConfig};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_lm::{BertEngineConfig, EngineConfig};
use kamel_store::{load_kamel, pack, pack_bytes, Store, StoreError, FLAG_QUANT};
use std::path::PathBuf;

include!("common/cases.rs");

/// `expect_err` without requiring `Kamel: Debug`.
fn must_fail(result: Result<Kamel, StoreError>, what: &str) -> StoreError {
    match result {
        Ok(_) => panic!("{what}"),
        Err(e) => e,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kamel_store_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A straight east-west street at `lat`, `n` fixes ~84 m apart.
fn street(lat: f64, lng0: f64, n: usize) -> Trajectory {
    Trajectory::new(
        (0..n)
            .map(|i| GpsPoint::from_parts(lat, lng0 + i as f64 * 0.001, i as f64 * 10.0))
            .collect(),
    )
}

/// Two-district n-gram pyramid: several models across levels, so the
/// store has real eviction pressure and pair/upper-level records.
fn district_kamel() -> Kamel {
    let kamel = Kamel::new(
        KamelConfig::builder()
            .pyramid_height(3)
            .pyramid_maintained(3)
            .model_threshold_k(60)
            .build(),
    );
    let mut corpus = Vec::new();
    for _ in 0..30 {
        corpus.push(street(41.15, -8.61, 25));
        corpus.push(street(41.25, -8.61, 25));
    }
    kamel.train(&corpus);
    kamel
}

fn sparse_queries() -> Vec<Trajectory> {
    vec![
        Trajectory::new(vec![
            GpsPoint::from_parts(41.15, -8.608, 0.0),
            GpsPoint::from_parts(41.15, -8.592, 160.0),
        ]),
        Trajectory::new(vec![
            GpsPoint::from_parts(41.25, -8.608, 0.0),
            GpsPoint::from_parts(41.25, -8.592, 160.0),
        ]),
        street(41.15, -8.61, 25).sparsify(500.0),
    ]
}

#[test]
fn packed_store_imputes_byte_identically_under_a_tight_budget() {
    let heap = district_kamel();
    let dir = tmp_dir("identity");
    let path = dir.join("city.kstore");
    let stats = pack(&heap, &path).expect("pack");
    assert!(stats.models >= 2, "expected a multi-model pyramid");

    // Budget of half the file: the boot sweep must evict.
    let budget = stats.bytes / 2;
    let stored = load_kamel(&path, Some(budget)).expect("load store");
    let residency = stored.residency().expect("store-backed system has residency");
    assert_eq!(residency.total_models, stats.models);
    assert!(
        residency.evictions_total >= 1,
        "budget {budget} of {} bytes must evict during the boot sweep",
        stats.bytes
    );
    assert!(
        residency.resident_models < residency.total_models,
        "everything stayed resident under a half-size budget"
    );

    // Byte-identical imputation, including re-materialization of evicted
    // cells on later queries.
    for (i, sparse) in sparse_queries().iter().enumerate() {
        assert_eq!(
            heap.impute(sparse),
            stored.impute(sparse),
            "query {i} diverged from the heap repository"
        );
    }
    // And again, so answers after eviction/re-materialization also match.
    for sparse in &sparse_queries() {
        assert_eq!(heap.impute(sparse), stored.impute(sparse));
    }
    assert_eq!(
        heap.model_summaries(),
        stored.model_summaries(),
        "summaries must serve verbatim from the meta record"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_caps_unpinned_resident_bytes() {
    // A single maintained level means no upper-level pins, so the budget
    // bounds *all* resident bytes exactly.
    let kamel = Kamel::new(
        KamelConfig::builder()
            .pyramid_height(3)
            .pyramid_maintained(1)
            .model_threshold_k(60)
            .build(),
    );
    let mut corpus = Vec::new();
    for _ in 0..30 {
        corpus.push(street(41.15, -8.61, 25));
        corpus.push(street(41.25, -8.61, 25));
    }
    kamel.train(&corpus);
    let dir = tmp_dir("cap");
    let path = dir.join("leaves.kstore");
    let stats = pack(&kamel, &path).expect("pack");
    assert!(stats.models >= 2);
    let budget = stats.bytes / 2;
    let stored = load_kamel(&path, Some(budget)).expect("load");
    for sparse in &sparse_queries() {
        stored.impute(sparse);
        let residency = stored.residency().expect("residency");
        assert!(
            residency.bytes_resident <= budget,
            "resident bytes {} exceed the cap {budget} mid-serving",
            residency.bytes_resident
        );
        assert_eq!(residency.pinned_models, 0, "one level must pin nothing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unbounded_budget_keeps_everything_resident() {
    let heap = district_kamel();
    let dir = tmp_dir("unbounded");
    let path = dir.join("city.kstore");
    pack(&heap, &path).expect("pack");
    let stored = load_kamel(&path, None).expect("load store");
    let residency = stored.residency().expect("residency");
    assert_eq!(residency.evictions_total, 0);
    assert_eq!(residency.resident_models, residency.total_models);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quantized_store_serves_packed_int8_byte_identically() {
    let kamel = Kamel::new(
        KamelConfig::builder()
            .pyramid_height(1)
            .pyramid_maintained(1)
            .model_threshold_k(40)
            .engine(EngineConfig::Bert(BertEngineConfig::for_tests()))
            .quantize(true)
            .quantize_min_agreement(0.0)
            .build(),
    );
    let corpus: Vec<Trajectory> = (0..20).map(|_| street(41.15, -8.61, 25)).collect();
    kamel.train(&corpus);
    assert!(kamel.is_quantized(), "gate at min_agreement 0 must pass");

    let dir = tmp_dir("quant");
    let path = dir.join("bert.kstore");
    let stats = pack(&kamel, &path).expect("pack");
    assert!(
        stats.quant_models >= 1,
        "a quantized system must pack int8 records"
    );
    let store = Store::open(&path).expect("open");
    assert_eq!(store.flags() & FLAG_QUANT, FLAG_QUANT);

    let stored = load_kamel(&path, None).expect("load store");
    let sparse = street(41.15, -8.61, 25).sparsify(900.0);
    assert_eq!(
        kamel.impute(&sparse),
        stored.impute(&sparse),
        "zero-copy int8 serving diverged from the heap engine"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn f32_system_packs_no_quant_records() {
    let heap = district_kamel();
    let dir = tmp_dir("f32");
    let path = dir.join("city.kstore");
    let stats = pack(&heap, &path).expect("pack");
    assert_eq!(
        stats.quant_models, 0,
        "an unquantized system must not grow int8 records in the store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_matrix_fails_loudly() {
    let heap = district_kamel();
    let clean = pack_bytes(&heap).expect("pack");
    let dir = tmp_dir("corrupt");
    let write = |name: &str, bytes: &[u8]| {
        let p = dir.join(name);
        std::fs::write(&p, bytes).expect("write variant");
        p
    };

    // Truncations at every structural boundary.
    for cut in [0, 20, 60, clean.len() / 2, clean.len() - 1] {
        let p = write("trunc.kstore", &clean[..cut]);
        let err = must_fail(load_kamel(&p, None), "truncated store must not load");
        assert!(matches!(err, StoreError::Corrupt(_)), "cut {cut}: {err}");
    }

    // One flipped byte in the last record's payload: open succeeds (the
    // index is intact) but the boot sweep catches it.
    let mut flipped = clean.clone();
    let last = flipped.len() - 3;
    flipped[last] ^= 0x10;
    let p = write("flip.kstore", &flipped);
    let err = must_fail(load_kamel(&p, None), "flipped byte must not serve");
    assert!(
        matches!(err, StoreError::Corrupt(ref m) if m.contains("checksum")
            || m.contains("decode") || m.contains("invalid")),
        "unexpected error: {err}"
    );

    // Wrong config digest (header bytes 16..24).
    let mut skewed = clean.clone();
    skewed[16] ^= 0xFF;
    let p = write("digest.kstore", &skewed);
    let err = must_fail(load_kamel(&p, None), "digest mismatch must not serve");
    assert!(matches!(err, StoreError::Incompatible(_)), "{err}");

    // Format version skew (header bytes 8..12).
    let mut vskew = clean.clone();
    vskew[8..12].copy_from_slice(&99u32.to_le_bytes());
    let p = write("version.kstore", &vskew);
    let err = must_fail(load_kamel(&p, None), "version skew must not serve");
    assert!(matches!(err, StoreError::Incompatible(_)), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repack_write_fault_leaves_the_previous_store_serving() {
    let heap = district_kamel();
    let dir = tmp_dir("fault");
    let path = dir.join("city.kstore");
    pack(&heap, &path).expect("initial pack");
    let sparse = &sparse_queries()[0];
    let want = heap.impute(sparse);

    // A re-pack whose temp-file write dies after 64 bytes: the rename
    // never runs, so the serving store must stay intact.
    let bytes = pack_bytes(&heap).expect("pack bytes");
    let io = FaultyIo::new(Fault::ShortWrite { keep: 64 });
    write_atomic_with(&io, &path, &bytes, false).expect_err("short write must fail");

    let stored = load_kamel(&path, None).expect("previous store must still load");
    assert_eq!(want, stored.impute(sparse));
    std::fs::remove_dir_all(&dir).ok();
}

/// Pack → open → materialize round-trips bit-identical predictions
/// against the heap repository for arbitrary sparsification of the
/// training streets. Reproduces `ProptestConfig::with_cases(6)` over
/// `gap_m` 300..1200, street index 0..2, budget divisor 1..4.
#[test]
fn pack_round_trip_is_bit_identical() {
    for_each_case(6, |g| {
        let gap_m = g.f64_in(300.0..1200.0);
        let lat = [41.15, 41.25][g.usize_in(0..2)];
        let budget_div = g.usize_in(1..4) as u64;
        let heap = district_kamel();
        let dir = tmp_dir("prop");
        let path = dir.join("prop.kstore");
        let stats = pack(&heap, &path).expect("pack");
        let stored = load_kamel(&path, Some(stats.bytes / budget_div)).expect("load");
        let sparse = street(lat, -8.61, 25).sparsify(gap_m);
        assert_eq!(heap.impute(&sparse), stored.impute(&sparse));
        std::fs::remove_dir_all(&dir).ok();
    });
}
