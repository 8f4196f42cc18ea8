//! Golden solver values: the exact objective bits, operation counts and
//! weak-duality bound bits of every solver on every standard registry
//! scenario at `Scale::Micro`, seed 2004, plus `scale-free-large` under
//! M1 and M2, the two stop rules that read the dual objective on a
//! ≥2k-edge graph.
//!
//! The determinism tests elsewhere prove a result does not depend on the
//! thread count; these pin the result itself across commits, so a change
//! that claims to be bit-invisible (a faster stop test, a cache, a new
//! queue) fails here if it is not. A deliberate re-baseline replaces the
//! table with the `actual` rows the failure message prints.

use omcf_core::solver::SolverKind;
use omcf_sim::{registry, Scale};

const SEED: u64 = 2004;

/// `(scenario, solver, objective bits, mst_ops, mst_ops_prepass,
/// iterations, dual bound bits)`; the bound column is 0 for solvers that
/// report no bound (M2, online).
type Row = (&'static str, &'static str, u64, u64, u64, u64, u64);

/// The standard grid, in registry × solver order.
const STANDARD: &[Row] = &[
    ("scenario-a", "m1", 0x4053_3b1a_2318_dc98, 1654, 0, 826, 0x4054_d5a8_05ff_4377),
    ("scenario-a", "m1-fleischer", 0x4054_4796_06fe_cbc8, 1670, 0, 826, 0x4055_4fdf_f93c_5973),
    ("scenario-a", "m2", 0x3fde_e7f2_48cc_4fdb, 2572, 1191, 523, 0),
    ("scenario-a", "online", 0x3fd5_5555_5555_5554, 2, 0, 2, 0),
    ("scenario-a-dynamic", "m1", 0x4053_848c_186c_5478, 2174, 0, 1086, 0x4054_d57d_0874_f664),
    (
        "scenario-a-dynamic",
        "m1-fleischer",
        0x4054_508a_d71a_d3c2,
        2193,
        0,
        1085,
        0x4055_357c_4ff5_e832,
    ),
    ("scenario-a-dynamic", "m2", 0x3fde_d598_00c4_5264, 3017, 1585, 515, 0),
    ("scenario-a-dynamic", "online", 0x3fd5_5555_5555_5554, 2, 0, 2, 0),
    ("scenario-b", "m1", 0x4057_aaea_15aa_6998, 2193, 0, 730, 0x4059_006f_71c7_257a),
    ("scenario-b", "m1-fleischer", 0x4058_e42b_d1ab_b014, 1756, 0, 493, 0x405b_11c9_7dcb_59dd),
    ("scenario-b", "m2", 0x403e_dfd3_fb73_306e, 2878, 1870, 494, 0),
    ("scenario-b", "online", 0x4040_aaaa_aaaa_aaab, 3, 0, 3, 0),
    ("scale-free", "m1", 0x4067_1035_5af2_b6b3, 2298, 0, 765, 0x4069_21f4_1f62_bc47),
    ("scale-free", "m1-fleischer", 0x4068_404b_8097_0122, 1409, 0, 764, 0x4069_9a55_acfc_ac56),
    ("scale-free", "m2", 0x4050_809c_c93b_9b18, 5460, 845, 1077, 0),
    ("scale-free", "online", 0x4049_0000_0000_0000, 3, 0, 3, 0),
    ("ring-lattice", "m1", 0x4058_754b_c84b_405c, 1011, 0, 336, 0x4059_0000_803d_4af6),
    ("ring-lattice", "m1-fleischer", 0x4058_ffff_ffff_fffa, 1311, 0, 336, 0x4059_53ee_2088_2aa6),
    ("ring-lattice", "m2", 0x403f_a35c_e403_6260, 2206, 964, 399, 0),
    ("ring-lattice", "online", 0x4040_aaaa_aaaa_aaab, 3, 0, 3, 0),
    ("grid-lattice", "m1", 0x406d_22b0_0c7e_9541, 1896, 0, 631, 0x406f_b635_4ff1_c8f7),
    ("grid-lattice", "m1-fleischer", 0x406e_cf7f_ffff_ffef, 1396, 0, 631, 0x4070_4881_1b28_6cb5),
    ("grid-lattice", "m2", 0x4048_9710_64d6_c266, 3905, 882, 668, 0),
    ("grid-lattice", "online", 0x4049_0000_0000_0000, 3, 0, 3, 0),
    ("hotspot", "m1", 0x4057_d143_1702_4af6, 1914, 0, 637, 0x4059_01d7_748e_8fd0),
    ("hotspot", "m1-fleischer", 0x4058_6b1b_9834_5fed, 1576, 0, 637, 0x4059_a746_0995_751f),
    ("hotspot", "m2", 0x403f_8e3d_418e_ac0a, 2609, 1380, 542, 0),
    ("hotspot", "online", 0x4040_aaaa_aaaa_aaab, 3, 0, 3, 0),
    ("churn", "m1", 0x4067_85d8_3056_fb9b, 5706, 0, 950, 0x4069_24ab_f250_a532),
    ("churn", "m1-fleischer", 0x4067_dd4e_64c2_2abc, 2787, 0, 987, 0x4069_ab58_84cb_59d7),
    ("churn", "m2", 0x4036_8fa8_263e_b6ff, 8774, 2442, 777, 0),
    ("churn", "online", 0x4034_0000_0000_0000, 8, 0, 10, 0),
    ("churn-dynamic", "m1", 0x4067_e00f_9d54_ad88, 8250, 0, 1374, 0x4069_17fc_553d_e2cb),
    ("churn-dynamic", "m1-fleischer", 0x4068_14b9_7b0e_a2ff, 4130, 0, 1472, 0x406a_9233_97e6_341e),
    ("churn-dynamic", "m2", 0x4036_8f29_0342_f1ea, 10547, 3652, 753, 0),
    ("churn-dynamic", "online", 0x4034_0000_0000_0000, 8, 0, 10, 0),
    ("churn-hotspot", "m1", 0x4068_6694_0b0f_516c, 5766, 0, 960, 0x4069_1593_21a6_0c27),
    ("churn-hotspot", "m1-fleischer", 0x4068_6b46_2001_44c6, 2754, 0, 954, 0x4069_ebb9_dcf0_1877),
    ("churn-hotspot", "m2", 0x4036_8fa8_263e_b6ff, 8942, 2453, 777, 0),
    ("churn-hotspot", "online", 0x4034_0000_0000_0000, 8, 0, 10, 0),
];

/// The same columns for `scale-free-large` × {m1, m2}.
const LARGE: &[Row] = &[
    ("scale-free-large", "m1", 0x4098_708b_c5c6_fcb8, 9408, 0, 293, 0x40b2_abfc_38c7_eb53),
    ("scale-free-large", "m2", 0x4040_439d_40bf_34cf, 20377, 391, 335, 0),
];

fn row(scenario: &'static str, kind: SolverKind) -> Row {
    let inst = registry::find(scenario).expect("registered").instance(SEED, Scale::Micro);
    let out = kind.solver().run(&inst);
    (
        scenario,
        kind.name(),
        out.objective.to_bits(),
        out.mst_ops,
        out.mst_ops_prepass,
        out.iterations,
        out.dual_bound.map_or(0, f64::to_bits),
    )
}

/// `0x4053_3b1a_2318_dc98` style, as the tables above write bits (`0`
/// for the no-bound column).
fn hex_bits(bits: u64) -> String {
    if bits == 0 {
        return "0".into();
    }
    let h = format!("{bits:016x}");
    format!("0x{}_{}_{}_{}", &h[..4], &h[4..8], &h[8..12], &h[12..])
}

fn check(expected: &[Row], cells: Vec<(&'static str, SolverKind)>) {
    let actual: Vec<Row> = cells.into_iter().map(|(s, k)| row(s, k)).collect();
    if actual != expected {
        let rows: String = actual
            .iter()
            .map(|(s, k, obj, ops, pre, it, bound)| {
                let (obj, bound) = (hex_bits(*obj), hex_bits(*bound));
                format!("    (\"{s}\", \"{k}\", {obj}, {ops}, {pre}, {it}, {bound}),\n")
            })
            .collect();
        panic!("solver values moved; actual rows:\n{rows}");
    }
}

#[test]
fn standard_scenarios_match_golden_values() {
    let cells = registry::standard()
        .into_iter()
        .flat_map(|spec| SolverKind::ALL.map(|k| (spec.name, k)))
        .collect();
    check(STANDARD, cells);
}

#[test]
fn scale_free_large_m1_m2_match_golden_values() {
    check(LARGE, vec![("scale-free-large", SolverKind::M1), ("scale-free-large", SolverKind::M2)]);
}
