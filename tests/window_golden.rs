//! Exact-stats golden pin for the instruction window.
//!
//! The event and scheduler suites compare one code path of the
//! current simulator with another; none of them would notice a change
//! that moves both sides the same way. This test pins the full
//! [`SimStats`](mds::core::SimStats) `Debug` rendering (plus the
//! fast-forward skip count) of one small suite trace, as a 64-bit
//! FNV-1a digest per configuration, across all nine policies, window
//! sizes {32, 128, 256}, and the continuous and split windows. The
//! digests were captured from the sorted-`Vec` window that the ring
//! buffer replaced, so a passing run shows the two implementations are
//! cycle-for-cycle identical.
//!
//! If a deliberate model change moves these numbers, the failure
//! message prints the whole `actual` table; paste it over [`GOLDEN`]
//! and say in the change why the simulated behaviour moved.

use mds::core::{CoreConfig, Policy, Simulator, TraceArtifacts, WindowModel};
use mds::workloads::{Benchmark, SuiteParams};

const ALL_NINE: [Policy; 9] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSelective,
    Policy::NasStoreBarrier,
    Policy::NasSync,
    Policy::NasStoreSets,
    Policy::NasOracle,
    Policy::AsNo,
    Policy::AsNaive,
];

const WINDOWS: [usize; 3] = [32, 128, 256];

const SPLIT: WindowModel = WindowModel::Split {
    units: 4,
    task_size: 16,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(policy, window size, split?, digest)` for `compress` at tiny scale.
const GOLDEN: &[(&str, usize, bool, u64)] = &[
    ("NAS/NO", 32, false, 0x57c951ab1ad79bee),
    ("NAS/NO", 32, true, 0x571189fe7e7a8499),
    ("NAS/NO", 128, false, 0x253482b7c868df73),
    ("NAS/NO", 128, true, 0xabb6ff83a5eb4a06),
    ("NAS/NO", 256, false, 0xb3985dbc16a1d4e5),
    ("NAS/NO", 256, true, 0xabb6ff83a5eb4a06),
    ("NAS/NAV", 32, false, 0x12652c1412de7003),
    ("NAS/NAV", 32, true, 0x5dcfe911032072ca),
    ("NAS/NAV", 128, false, 0x0ad70ab9520fa4b6),
    ("NAS/NAV", 128, true, 0x190b75902185b5a3),
    ("NAS/NAV", 256, false, 0xf25187142baf03e1),
    ("NAS/NAV", 256, true, 0x190b75902185b5a3),
    ("NAS/SEL", 32, false, 0x9bbe3249af39f45f),
    ("NAS/SEL", 32, true, 0x8a7bb675d4b7364e),
    ("NAS/SEL", 128, false, 0xa70f63f132337c19),
    ("NAS/SEL", 128, true, 0x2bbb60076fb341e2),
    ("NAS/SEL", 256, false, 0x1492e6f5e709a334),
    ("NAS/SEL", 256, true, 0x2bbb60076fb341e2),
    ("NAS/STORE", 32, false, 0x3a7866cd3e4d9fc5),
    ("NAS/STORE", 32, true, 0x1c2404502b9c4be2),
    ("NAS/STORE", 128, false, 0x8e36baaffad55f33),
    ("NAS/STORE", 128, true, 0xb1940828e92291bb),
    ("NAS/STORE", 256, false, 0x5c9b5fc12f04fba8),
    ("NAS/STORE", 256, true, 0xb1940828e92291bb),
    ("NAS/SYNC", 32, false, 0x894751d54461bcd1),
    ("NAS/SYNC", 32, true, 0xbcfb76c9f2854b2d),
    ("NAS/SYNC", 128, false, 0x57b2638789e91260),
    ("NAS/SYNC", 128, true, 0x13c710196cef8ccc),
    ("NAS/SYNC", 256, false, 0xd038fbb5d312bf10),
    ("NAS/SYNC", 256, true, 0x13c710196cef8ccc),
    ("NAS/SSET", 32, false, 0x894751d54461bcd1),
    ("NAS/SSET", 32, true, 0x0aed25c17cd9dbb2),
    ("NAS/SSET", 128, false, 0x57b2638789e91260),
    ("NAS/SSET", 128, true, 0xc64f367626235511),
    ("NAS/SSET", 256, false, 0xd038fbb5d312bf10),
    ("NAS/SSET", 256, true, 0xc64f367626235511),
    ("NAS/ORACLE", 32, false, 0xd80d8c8b8b195b67),
    ("NAS/ORACLE", 32, true, 0x352c43f82f3a934d),
    ("NAS/ORACLE", 128, false, 0xfef2667704929293),
    ("NAS/ORACLE", 128, true, 0xdb4ad9abbde75b4e),
    ("NAS/ORACLE", 256, false, 0xc6008cc8884fecc1),
    ("NAS/ORACLE", 256, true, 0xdb4ad9abbde75b4e),
    ("AS/NO", 32, false, 0xeeb1bf8f4572ce0b),
    ("AS/NO", 32, true, 0x74fd550e6af5a84a),
    ("AS/NO", 128, false, 0x32f6bcacd69b1f22),
    ("AS/NO", 128, true, 0xf4b42098b5baba2d),
    ("AS/NO", 256, false, 0xd193eb9604c33810),
    ("AS/NO", 256, true, 0xf4b42098b5baba2d),
    ("AS/NAV", 32, false, 0x9517432b7c65195f),
    ("AS/NAV", 32, true, 0x6ed4483b284fcc1d),
    ("AS/NAV", 128, false, 0x63c6d8e96b58f486),
    ("AS/NAV", 128, true, 0x18c94addd7d30456),
    ("AS/NAV", 256, false, 0x20c6e336c4c9b81c),
    ("AS/NAV", 256, true, 0x18c94addd7d30456),
];

#[test]
fn window_rewrite_preserves_exact_stats() {
    let trace = Benchmark::Compress
        .trace(&SuiteParams::tiny())
        .expect("trace");
    let artifacts = TraceArtifacts::build(&trace);
    let mut actual = Vec::new();
    for policy in ALL_NINE {
        for size in WINDOWS {
            for split in [false, true] {
                let mut cfg = CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_window_size(size);
                if split {
                    cfg = cfg.with_window_model(SPLIT);
                }
                let r = Simulator::new(cfg).run_with_artifacts(&trace, &artifacts);
                let text = format!("{:?} skipped={}", r.stats, r.skipped_cycles);
                actual.push((policy.paper_name(), size, split, fnv1a(text.as_bytes())));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(p, n, s, d)| format!("    ({p:?}, {n}, {s}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table is incomplete; actual:\n{table}"
    );
    for (a, g) in actual.iter().zip(GOLDEN) {
        assert_eq!(a, g, "stats digest moved; actual table:\n{table}");
    }
}
