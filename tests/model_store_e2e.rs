//! End-to-end model store tests: pack → open → materialize must serve
//! byte-identical predictions vs. the heap repository it was packed
//! from, under a byte budget smaller than the full model set; and every
//! corruption mode must fail loudly at open or materialize, never
//! silently serve damaged weights.

use kamel::checkpoint::faults::{Fault, FaultyIo};
use kamel::checkpoint::{crc32c, write_atomic_with};
use kamel::{Kamel, KamelConfig};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_lm::{BertEngineConfig, BertScale, EngineConfig, NgramConfig};
use kamel_store::format::{HEADER_LEN, INDEX_ENTRY_LEN};
use kamel_store::{
    load_kamel, pack, pack_bytes, RecordKey, Store, StoreBuilder, StoreError, StoreSource,
    FLAG_QUANT,
};
use std::path::PathBuf;
use std::sync::OnceLock;

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

/// Which masked-token engine a district pyramid trains.
#[derive(Clone, Copy)]
enum Engine {
    Ngram,
    /// Unquantized `bert-tiny`, a few epochs: bit-identity does not need a
    /// good model, only a trained one.
    BertTiny,
}

/// Two-district pyramid: several models across levels, so the store has
/// real eviction pressure and pair/upper-level records.
fn train_district(engine: Engine) -> Kamel {
    let engine = match engine {
        Engine::Ngram => EngineConfig::Ngram(NgramConfig::default()),
        Engine::BertTiny => EngineConfig::Bert(BertEngineConfig {
            scale: BertScale::Tiny,
            epochs: 2,
            ..BertEngineConfig::for_tests()
        }),
    };
    let kamel = Kamel::new(
        KamelConfig::builder()
            .engine(engine)
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

fn district_kamel() -> Kamel {
    train_district(Engine::Ngram)
}

/// The BERT district, trained once for the suites that only read it.
fn bert_district() -> &'static Kamel {
    static TRAINED: OnceLock<Kamel> = OnceLock::new();
    TRAINED.get_or_init(|| train_district(Engine::BertTiny))
}

/// Room for everything the store pins (the global model and every level
/// above the leaf) plus the largest single leaf record.
fn budget_for_one_leaf(store: &Store) -> u64 {
    let models = || store.index().iter().filter(|e| e.key != RecordKey::META);
    let leaf_level = models().map(|e| e.key.level).max().expect("a model record");
    let global = RecordKey::from_selection(kamel::partition::ModelSelection::Global);
    let is_leaf = |key: RecordKey| key.level == leaf_level && key != global;
    let pinned: u64 = models().filter(|e| !is_leaf(e.key)).map(|e| e.len).sum();
    let leaf = models().filter(|e| is_leaf(e.key)).map(|e| e.len).max();
    pinned + leaf.expect("a leaf record")
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

/// One-gap queries short enough to resolve to leaf-level records, spread
/// along both streets so consecutive ones land in different leaves.
fn leaf_queries() -> Vec<Trajectory> {
    let mut queries = Vec::new();
    for lng in [-8.6095, -8.603, -8.5965, -8.5905] {
        for lat in [41.15, 41.25] {
            queries.push(Trajectory::new(vec![
                GpsPoint::from_parts(lat, lng, 0.0),
                GpsPoint::from_parts(lat, lng + 0.005, 50.0),
            ]));
        }
    }
    queries
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
fn f32_bert_store_imputes_byte_identically_with_room_for_one_leaf() {
    let heap = bert_district();
    let dir = tmp_dir("bert_identity");
    let path = dir.join("city.kstore");
    let stats = pack(heap, &path).expect("pack");
    assert!(stats.models >= 3, "expected a multi-cell pyramid");
    assert_eq!(stats.quant_models, 0);
    assert_eq!(stats.int8_bytes, 0);
    assert!(
        stats.tensor_bytes > 9 * stats.json_bytes,
        "a BERT store is weights, not text: {stats:?}"
    );

    let store = Store::open(&path).expect("open");
    assert_eq!(store.flags() & FLAG_QUANT, 0, "f32 tensors are not int8");
    for i in 1..store.record_count() {
        let view = store.record(i).expect("record");
        assert!(view.tensors_len > 0 && view.aux_len == 0);
        assert!(
            view.json.len() < 128,
            "record {i} holds more than a ModelMeta"
        );
    }
    let budget = budget_for_one_leaf(&store);
    let stored = load_kamel(&path, Some(budget)).expect("load store");
    let after_boot = stored.residency().expect("residency");
    assert!(after_boot.evictions_total >= 1, "the boot sweep must evict");
    assert!(after_boot.resident_models < after_boot.total_models);

    // The two streets resolve to different leaves, so with room for one
    // every round re-materializes what the previous query evicted.
    let mut evictions = after_boot.evictions_total;
    for round in 0..3 {
        for (i, sparse) in leaf_queries().iter().chain(&sparse_queries()).enumerate() {
            let want = heap.impute(sparse);
            assert!(want.model_calls() > 0, "query {i} never reached a model");
            assert_eq!(
                want,
                stored.impute(sparse),
                "round {round} query {i} diverged from the heap repository"
            );
        }
        let now = stored.residency().expect("residency");
        assert!(now.bytes_resident <= budget);
        assert!(
            now.evictions_total > evictions,
            "round {round} served without evicting: the answers above never re-materialized"
        );
        evictions = now.evictions_total;
    }
    assert_eq!(heap.model_summaries(), stored.model_summaries());
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
/// training streets, for either engine. Reproduces
/// `ProptestConfig::with_cases(6)` over `gap_m` 300..1200, street index
/// 0..2, budget divisor 1..4, plus an engine draw.
#[test]
fn pack_round_trip_is_bit_identical() {
    let ngram = district_kamel();
    for_each_case(6, |g| {
        let gap_m = g.f64_in(300.0..1200.0);
        let lat = [41.15, 41.25][g.usize_in(0..2)];
        let budget_div = g.usize_in(1..4) as u64;
        let heap = [&ngram, bert_district()][g.usize_in(0..2)];
        let dir = tmp_dir("prop");
        let path = dir.join("prop.kstore");
        let stats = pack(heap, &path).expect("pack");
        let stored = load_kamel(&path, Some(stats.bytes / budget_div)).expect("load");
        let sparse = street(lat, -8.61, 25).sparsify(gap_m);
        assert_eq!(heap.impute(&sparse), stored.impute(&sparse));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Recomputes record `i`'s checksum and the index checksum of a store
/// file edited in place, so the edit reaches the decoder instead of
/// stopping at the CRC.
fn reseal(file: &mut [u8], i: usize) {
    let word = |file: &[u8], at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
    let entry = HEADER_LEN + i * INDEX_ENTRY_LEN;
    let offset = word(file, entry + 16) as usize;
    let len = word(file, entry + 24) as usize;
    let crc = crc32c(&file[offset..offset + len]);
    file[entry + 32..entry + 36].copy_from_slice(&crc.to_le_bytes());
    let records = u32::from_le_bytes(file[24..28].try_into().unwrap()) as usize;
    let index_crc = crc32c(&file[HEADER_LEN..HEADER_LEN + records * INDEX_ENTRY_LEN]);
    file[28..32].copy_from_slice(&index_crc.to_le_bytes());
}

/// ROADMAP 4b for the binary record: thousands of seeded mutations of a
/// packed BERT record, each behind valid checksums so it reaches the
/// decoder, and each must come back as `StoreError::Corrupt` — no panic,
/// and no allocation sized by a claim the bytes do not back (an unchecked
/// 2³²-row tensor or 2⁶⁴-key vocabulary would abort the process).
///
/// Only bytes whose every value is checkable are mutated: the framing
/// words, the tensor header, the shape table and the vocabulary count.
/// Weights, keys and `n_heads` among its divisors of `hidden` are values,
/// not structure: a different one is a different valid model.
#[test]
fn hostile_bert_records_fail_as_corrupt() {
    let heap = bert_district();
    let clean = Store::from_bytes(pack_bytes(heap).expect("pack")).expect("open");
    let file = kamel_nn::ByteSource::bytes(&*clean.byte_source()).to_vec();
    let section = |at: usize, len: usize| file[at..at + len].to_vec();
    let meta = clean.record(0).expect("meta");
    let (meta_json, summaries) = (meta.json.to_vec(), section(meta.aux_offset, meta.aux_len));
    let model = clean.record(1).expect("a model record");
    let (key, model_json) = (model.key, model.json.to_vec());
    let tensors = section(model.tensors_offset, model.tensors_len);

    // A two-record store around (possibly mutated) tensor bytes; the
    // builder checksums whatever it is given.
    let rebuild = |tensors: &[u8]| {
        let mut b = StoreBuilder::new(clean.config_digest());
        b.push_record(RecordKey::META, &meta_json, &[], &summaries);
        b.push_record(key, &model_json, tensors, &[]);
        b.finish()
    };
    let materialize = |file: Vec<u8>| -> Result<(), StoreError> {
        let skeleton = heap.repo_skeleton().expect("trained");
        StoreSource::new(Store::from_bytes(file)?, skeleton, Vec::new(), u64::MAX)?.warm_all()
    };
    materialize(rebuild(&tensors)).expect("the unmutated record materializes");

    // The tensor section's geometry, read from the clean bytes: ten header
    // words, the shape table, the weights, then the vocabulary count.
    let word = |at: usize| u32::from_le_bytes(tensors[at..at + 4].try_into().unwrap());
    const HEADER: usize = 40;
    const N_LAYERS_AT: usize = 20;
    const N_HEADS_AT: usize = 24;
    const COUNT_AT: usize = 36;
    let (n_layers, count) = (word(N_LAYERS_AT), word(COUNT_AT));
    let table_end = HEADER + 8 * count as usize;
    let floats: usize = (0..count as usize)
        .map(|i| (word(HEADER + 8 * i) * word(HEADER + 8 * i + 4)) as usize)
        .sum();
    let vocab_count_at = (table_end + 4 * floats + 7) & !7;

    for_each_case(2400, |g| {
        let mut t = tensors.clone();
        let other_byte = |g: &mut Gen| 1 + (g.next_u64() % 255) as u8; // XOR mask, never 0
        let set_word = |t: &mut [u8], at: usize, v: u32| -> bool {
            let changed = t[at..at + 4] != v.to_le_bytes();
            t[at..at + 4].copy_from_slice(&v.to_le_bytes());
            changed
        };
        let kind = g.usize_in(0..8);
        let mutated = match kind {
            0 => {
                t.truncate(g.usize_in(0..t.len()));
                rebuild(&t)
            }
            1 => {
                for _ in 0..g.usize_in(1..65) {
                    t.push(g.next_u64() as u8);
                }
                rebuild(&t)
            }
            2 => {
                // Any header byte but the free `n_heads` word.
                let mut at = g.usize_in(0..HEADER - 4);
                if at >= N_HEADS_AT {
                    at += 4;
                }
                t[at] ^= other_byte(g);
                rebuild(&t)
            }
            3 => {
                t[g.usize_in(HEADER..table_end)] ^= other_byte(g);
                rebuild(&t)
            }
            4 => {
                t[g.usize_in(vocab_count_at..vocab_count_at + 8)] ^= other_byte(g);
                rebuild(&t)
            }
            5 => {
                // Tensor counts that disagree with the table that follows:
                // swapped with the layer count, shifted together by a
                // whole layer, or just wrong.
                let (layers, tensors) = match g.usize_in(0..4) {
                    0 => (count, n_layers),
                    1 => (n_layers + 1, count + 16),
                    2 => (n_layers - 1, count - 16),
                    _ => (n_layers, count ^ (1 + g.usize_in(0..63) as u32)),
                };
                set_word(&mut t, N_LAYERS_AT, layers);
                set_word(&mut t, COUNT_AT, tensors);
                rebuild(&t)
            }
            6 => {
                // A length claim far beyond the bytes present.
                let extreme = [0, u32::MAX, 1 << 24, (1 << 24) + 1, 0x7FFF_FFFF];
                let at = 4 * g.usize_in(1..table_end / 4);
                let mut changed = false;
                for v in extreme.iter().cycle().skip(g.usize_in(0..5)).take(5) {
                    changed = set_word(&mut t, at, *v);
                    if changed {
                        break;
                    }
                }
                assert!(changed);
                if g.usize_in(0..4) == 0 {
                    let huge = [u64::MAX, 1 << 61, 1 << 32][g.usize_in(0..3)];
                    t[vocab_count_at..vocab_count_at + 8].copy_from_slice(&huge.to_le_bytes());
                }
                rebuild(&t)
            }
            _ => {
                // The payload's own framing, edited in the finished file:
                // three section lengths, the reserved word, and the zero
                // padding between the JSON and the tensors.
                let mut file = rebuild(&t);
                let entry = HEADER_LEN + INDEX_ENTRY_LEN;
                let payload_at =
                    u64::from_le_bytes(file[entry + 16..entry + 24].try_into().unwrap()) as usize;
                let pad = (8 - model_json.len() % 8) % 8;
                let mut at = g.usize_in(0..16 + pad);
                if at >= 16 {
                    at += model_json.len();
                }
                file[payload_at + at] ^= other_byte(g);
                reseal(&mut file, 1);
                file
            }
        };
        match materialize(mutated) {
            Err(StoreError::Corrupt(_)) => {}
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(()) => panic!("a mutated record (kind {kind}) materialized"),
        }
    });
}
