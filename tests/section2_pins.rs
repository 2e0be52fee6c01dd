//! Byte-level pins on the Section 2 reports: Table 1 and Figures 3, 4
//! and 6, rendered at three seeds and hashed. Recorded before the
//! clustering gained its chord-bound pruning and the analysis was split
//! per figure; a change to either that moves a single rendered byte —
//! a cluster member, a centroid digit, a label, a CDF point — changes a
//! digest here.

use mpwifi::simcore::Fnv1a;
use mpwifi_repro::experiments::crowd_figs::{fig3, fig4, fig6, table1};
use mpwifi_repro::{Report, Scale};

type Experiment = fn(Scale, u64) -> Report;

const SEEDS: [u64; 3] = [1, 7, 42];

#[test]
fn section2_reports_are_pinned_at_three_seeds() {
    // `Fnv1a` of `render_text()` at each of `SEEDS`, in order.
    let pins: [(&str, Experiment, [u64; 3]); 4] = [
        (
            "table1",
            table1,
            [
                0xffdf_d0c8_e81d_85dc,
                0x5f97_4ef7_0c6e_e674,
                0xe4c0_2f39_b1bc_51bb,
            ],
        ),
        (
            "fig3",
            fig3,
            [
                0xee84_f38e_eacb_8e06,
                0x1d20_28b7_b48a_2e74,
                0xa244_5086_1d27_8f23,
            ],
        ),
        (
            "fig4",
            fig4,
            [
                0x4633_850e_f277_0e61,
                0xce57_9757_af08_c971,
                0xb60a_bfe2_54b9_7fe1,
            ],
        ),
        (
            "fig6",
            fig6,
            [
                0xc0ab_f10f_e4d6_165b,
                0x49a7_91b8_8a89_cb7a,
                0xf47b_ab39_42a9_038a,
            ],
        ),
    ];
    for (id, run, expected) in pins {
        let actual =
            SEEDS.map(|seed| Fnv1a::hash(run(Scale::Quick, seed).render_text().as_bytes()));
        assert_eq!(actual, expected, "{id} at seeds {SEEDS:?}");
    }
}
