//! The stream every committed number was produced on. The literals were
//! dumped at the commit before this crate existed, from the offline
//! stand-ins for `rand`/`rand_chacha` that trained every model behind
//! EXPERIMENTS.md, the `BENCH_*.json` files and the benchmark's quality
//! metrics; a changed literal here means every one of those is stale.

use kamel_rng::{splitmix64, Rng};

/// Eight draws of each operation, each row from a fresh generator.
struct Golden {
    seed: u64,
    next_u64: [u64; 8],
    f32_bits: [u32; 8],
    f64_bits: [u64; 8],
    /// `0..1000usize`
    index: [usize; 8],
    /// `3..=8usize`
    probe_len: [usize; 8],
    /// `5..50_000u32`
    token: [u32; 8],
    /// `0..4` as `i32`
    steps: [i32; 8],
    /// `f32::EPSILON..1.0`
    open_unit_bits: [u32; 8],
    /// `-25.0..=25.0` as `f64`
    jitter_bits: [u64; 8],
    /// `bool(0.15)`
    coin: [bool; 8],
    /// `[0, 1, .., 9]` shuffled once
    shuffle: [u8; 10],
}

#[rustfmt::skip]
const GOLDEN: [Golden; 4] = [
    Golden {
        seed: 0,
        next_u64: [5987356902031041503, 7051070477665621255, 6633766593972829180, 211316841551650330, 9136120204379184874, 379361710973160858, 15813423377499357806, 15596884590815070553],
        f32_bits: [1051078330, 1053013214, 1052254142, 1010544576, 1056805896, 1017673824, 1062958224, 1062761283],
        f64_bits: [4599518648142545608, 4600557430931251252, 4600149907607332510, 4577757273079542464, 4602593612304994966, 4581584748142379552, 4605896617678821024, 4605790885849385337],
        index: [324, 382, 359, 11, 495, 20, 857, 845],
        probe_len: [4, 5, 5, 3, 5, 3, 8, 8],
        token: [16232, 19115, 17984, 577, 24766, 1033, 42863, 42276],
        steps: [1, 1, 1, 0, 1, 0, 3, 3],
        open_unit_bits: [1051078333, 1053013216, 1052254145, 1010544703, 1056805898, 1017673887, 1062958224, 1062761283],
        jitter_bits: [13844499422144067496, 13841687393536525148, 13842960903923771220, 13850940906999141587, 13821060743910505856, 13850812698938364677, 4625721027848025946, 4625555821864532686],
        coin: [false, false, false, true, false, true, false, false],
        shuffle: [1, 4, 5, 8, 6, 7, 0, 2, 9, 3],
    },
    Golden {
        seed: 1,
        next_u64: [14971601782005023387, 13781649495232077965, 1847458086238483744, 13765271635752736470, 3406718355780431780, 10892412867582108485, 18204613561675945223, 9655336933892813345],
        f32_bits: [1062192592, 1061110337, 1036852200, 1061095441, 1044192352, 1058482591, 1065132999, 1057357477],
        f64_bits: [4605485571977896056, 4604904540587870204, 4591881053812534000, 4604896543586171306, 4595821767079169076, 4603493780515775492, 4607064191010938498, 4602889739532528766],
        index: [811, 747, 100, 746, 184, 590, 986, 523],
        probe_len: [7, 7, 3, 7, 4, 6, 8, 6],
        token: [40581, 37356, 5012, 37312, 9238, 29525, 49343, 26173],
        steps: [3, 2, 0, 2, 0, 2, 3, 2],
        open_unit_bits: [1062192592, 1061110338, 1036852214, 1061095442, 1044192359, 1058482592, 1065132999, 1057357478],
        jitter_bits: [4624960720571161976, 4623144997477331188, 13849692630292684957, 4623120006847022132, 13848437164066446967, 4616779526821941528, 4627545361179459500, 4607951828169693264],
        coin: [false, false, true, false, false, false, false, false],
        shuffle: [4, 7, 9, 3, 2, 1, 5, 0, 6, 8],
    },
    Golden {
        seed: 42,
        next_u64: [15021278609987233951, 5881210131331364753, 18149643915985481100, 12933668939759105464, 14637574242682825331, 10848501901068131965, 2312344417745909078, 11162538943635311430],
        f32_bits: [1062237773, 1050885250, 1065083004, 1060339103, 1061888796, 1058442655, 1040211040, 1058728270],
        f64_bits: [4605509828241559245, 4599414989186784204, 4607037350363628701, 4604490487582268166, 4605322472593461389, 4603472339614157339, 4593684317981445400, 4603625678013848345],
        index: [814, 318, 983, 701, 793, 588, 125, 605],
        probe_len: [7, 4, 8, 7, 7, 6, 3, 6],
        token: [40716, 15944, 49194, 35058, 39676, 29406, 6271, 30258],
        steps: [3, 1, 3, 2, 3, 2, 0, 2],
        open_unit_bits: [1062237773, 1050885253, 1065083004, 1060339104, 1061888796, 1058442656, 1040211047, 1058728271],
        jitter_bits: [4625036521395109440, 13844661389262444689, 4627503422668037942, 4621851081834824820, 4624451034994803640, 4616645521186828072, 13849337950169159394, 4617603886184896860],
        coin: [false, false, false, false, false, false, true, false],
        shuffle: [5, 3, 1, 0, 9, 6, 4, 7, 2, 8],
    },
    Golden {
        seed: 18446744073709551615,
        next_u64: [6254647548650071986, 16610832622747802512, 16422857234328439435, 5048281510058307187, 12093889312535503841, 7417986222439541780, 16304073528878514024, 8976797394443910655],
        f32_bits: [1051564528, 1063683464, 1063512501, 1049370162, 1059575328, 1053680630, 1063404468, 1056516090],
        f64_bits: [4599779674164634504, 4606285977661852491, 4606194192804225849, 4598601582330072234, 4604080438936162892, 4600915747088257034, 4606136192948049127, 4602438023623417550],
        index: [339, 900, 890, 273, 655, 402, 883, 486],
        probe_len: [5, 8, 8, 4, 6, 5, 8, 5],
        token: [16956, 45024, 44514, 13687, 32782, 20109, 44192, 24334],
        steps: [1, 3, 3, 1, 2, 1, 3, 1],
        open_unit_bits: [1051564531, 1063683464, 1063512501, 1049370165, 1059575329, 1053680632, 1063404468, 1056516092],
        jitter_bits: [13844091568984553596, 4626329402821512614, 4626185988981470986, 13845932337476057142, 4620446141949362776, 13840567655545882080, 4626095364206194856, 13827567145130786272],
        coin: [false, false, false, false, false, false, false, false],
        shuffle: [0, 4, 6, 5, 2, 9, 1, 7, 8, 3],
    },
];

fn draws<T>(seed: u64, mut draw: impl FnMut(&mut Rng) -> T) -> [T; 8] {
    let mut rng = Rng::seed_from_u64(seed);
    std::array::from_fn(|_| draw(&mut rng))
}

#[test]
fn every_operation_reproduces_the_committed_stream() {
    for g in &GOLDEN {
        let seed = g.seed;
        eprintln!("seed {seed}");
        assert_eq!(draws(seed, Rng::next_u64), g.next_u64);
        assert_eq!(draws(seed, |r| r.f32().to_bits()), g.f32_bits);
        assert_eq!(draws(seed, |r| r.f64().to_bits()), g.f64_bits);
        assert_eq!(draws(seed, |r| r.range(0..1000usize)), g.index);
        assert_eq!(draws(seed, |r| r.range(3..=8usize)), g.probe_len);
        assert_eq!(draws(seed, |r| r.range(5..50_000u32)), g.token);
        assert_eq!(draws(seed, |r| r.range(0..4)), g.steps);
        let open_unit = draws(seed, |r| r.range(f32::EPSILON..1.0).to_bits());
        assert_eq!(open_unit, g.open_unit_bits);
        let jitter = draws(seed, |r| r.range(-25.0f64..=25.0).to_bits());
        assert_eq!(jitter, g.jitter_bits);
        assert_eq!(draws(seed, |r| r.bool(0.15)), g.coin);
        let mut deck: [u8; 10] = std::array::from_fn(|i| i as u8);
        Rng::seed_from_u64(seed).shuffle(&mut deck);
        assert_eq!(deck, g.shuffle);
    }
}

#[test]
fn splitmix64_matches_its_reference_values() {
    // The first two outputs of the published splitmix64 sequence from state 0.
    assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
}

#[test]
fn ranges_stay_inside_their_bounds() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..10_000 {
        assert!((f32::EPSILON..1.0).contains(&rng.range(f32::EPSILON..1.0)));
        assert!((-2.5..=2.5).contains(&rng.range(-2.5f64..=2.5)));
        assert!((-7..-3).contains(&rng.range(-7..-3)));
        assert_eq!(rng.range(9..=9usize), 9);
        assert_eq!(rng.range(u32::MAX - 1..u32::MAX), u32::MAX - 1);
    }
    assert!(!rng.bool(0.0));
    assert!(rng.bool(1.0));
    rng.shuffle::<u8>(&mut []);
}

#[test]
#[should_panic(expected = "empty range")]
fn empty_integer_range_panics() {
    Rng::seed_from_u64(0).range(4..4usize);
}

#[test]
#[should_panic(expected = "empty range")]
#[allow(clippy::reversed_empty_ranges)]
fn reversed_inclusive_range_panics() {
    Rng::seed_from_u64(0).range(5..=4u32);
}

#[test]
#[should_panic(expected = "empty range")]
fn empty_float_range_panics() {
    Rng::seed_from_u64(0).range(1.0f32..1.0);
}

#[test]
#[should_panic(expected = "out of range")]
fn probability_above_one_panics() {
    Rng::seed_from_u64(0).bool(1.5);
}

#[test]
#[should_panic(expected = "out of range")]
fn nan_probability_panics() {
    Rng::seed_from_u64(0).bool(f64::NAN);
}
