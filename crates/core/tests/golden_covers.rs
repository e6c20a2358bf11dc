//! Golden covers: `prop_cfd_spc` output pinned for a handful of seeded
//! generated instances — the CFD list in order, plus `complete` and
//! `always_empty`. The expected values were recorded before the compiled
//! implication engine replaced the generic chase inside `MinCover`, so any
//! change to the implication or cover code that moves a cover shows here.

use cfd_datagen::{
    gen_cfds, gen_schema, gen_spc_view, CfdGenConfig, SchemaGenConfig, ViewGenConfig,
};
use cfd_propagation::cover::RbrOptions;
use cfd_propagation::{prop_cfd_spc, CoverOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One seeded instance.
#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    relations: usize,
    arity: (usize, usize),
    sigma: usize,
    lhs: usize,
    var_pct: f64,
    /// `(|Y|, |F|, |Ec|)`.
    view: (usize, usize, usize),
    const_range: i64,
    /// RBR growth bound (`None`: full cover).
    max_size: Option<usize>,
}

/// The §5 shape: 10 relations of 10–20 attributes, LHS up to 9,
/// `|Y|` 25, `|F|` 10, `|Ec|` 4, constants from `[1, 100000]`.
const fn paper(seed: u64, sigma: usize, var_pct: f64) -> Case {
    Case {
        seed,
        relations: 10,
        arity: (10, 20),
        sigma,
        lhs: 9,
        var_pct,
        view: (25, 10, 4),
        const_range: 100_000,
        max_size: None,
    }
}

/// A dense small shape: 3 relations of 6–8 attributes, short LHS and few
/// constants, so more CFDs interact and survive projection.
const fn dense(seed: u64) -> Case {
    Case {
        seed,
        relations: 3,
        arity: (6, 8),
        sigma: 24,
        lhs: 3,
        var_pct: 0.6,
        view: (8, 3, 1),
        const_range: 20,
        max_size: None,
    }
}

/// `prop_cfd_spc` on the case: rendered CFDs, `complete`, `always_empty`.
fn cover_of(c: Case) -> (Vec<String>, bool, bool) {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let schema = SchemaGenConfig {
        relations: c.relations,
        min_arity: c.arity.0,
        max_arity: c.arity.1,
        finite_ratio: 0.0,
    };
    let catalog = gen_schema(&schema, &mut rng);
    let cfds = CfdGenConfig {
        count: c.sigma,
        lhs_max: c.lhs,
        var_pct: c.var_pct,
        const_range: c.const_range,
        ..CfdGenConfig::default()
    };
    let sigma = gen_cfds(&catalog, &cfds, &mut rng);
    let (y, f, ec) = c.view;
    let view_cfg = ViewGenConfig {
        y,
        f,
        ec,
        const_range: c.const_range,
    };
    let view = gen_spc_view(&catalog, &view_cfg, &mut rng);
    let opts = CoverOptions {
        rbr: RbrOptions {
            max_size: c.max_size,
            ..RbrOptions::default()
        },
        ..CoverOptions::default()
    };
    let cover = prop_cfd_spc(&catalog, &sigma, &view, &opts).expect("valid instance");
    let cfds = cover.cfds.iter().map(|c| c.to_string()).collect();
    (cfds, cover.complete, cover.always_empty)
}

#[test]
fn covers_match_the_recorded_output() {
    let bounded = Case {
        max_size: Some(30),
        ..paper(11, 250, 0.4)
    };
    let expected: [(Case, &[&str], bool, bool); 8] = [
        (
            paper(1, 150, 0.4),
            &[
                "([#1] -> #2, (96015 || 62193))",
                "([#24] -> #7, (18460 || 50504))",
                "([#24] -> #21, (x || x))",
                "([#19] -> #19, (_ || 40574))",
                "([#2] -> #22, (x || x))",
                "([#5] -> #5, (_ || 98270))",
                "([#14] -> #14, (_ || 54906))",
            ],
            true,
            false,
        ),
        (
            paper(2, 200, 0.5),
            &["([#0] -> #0, (_ || 1000))", "([#0] -> #0, (_ || 1001))"],
            true,
            true,
        ),
        (
            paper(3, 250, 0.4),
            &[
                "([#6, #11, #13] -> #18, (36005, 63422, 92423 || _))",
                "([#6] -> #11, (50094 || 75281))",
                "([#13] -> #9, (54131 || 49338))",
                "([#17] -> #17, (_ || 77508))",
                "([#21] -> #21, (_ || 21133))",
                "([#8] -> #8, (_ || 75074))",
                "([#24] -> #24, (_ || 75284))",
            ],
            true,
            false,
        ),
        (
            paper(11, 250, 0.4),
            &[
                "([#16, #18, #19] -> #6, (77219, 73501, 2866 || 9283))",
                "([#4, #6, #18] -> #19, (96182, 7172, 77943 || 41876))",
                "([#24] -> #24, (_ || 87645))",
                "([#2, #10, #14, #21] -> #24, (73341, 38459, 81525, 82078 || 66140))",
                "([#14] -> #21, (44738 || 8413))",
                "([#1, #2, #3] -> #6, (_, _, 35168 || _))",
                "([#2, #3, #9, #20] -> #1, (6567, 54442, 28426, 25610 || 37319))",
                "([#13, #17] -> #12, (62755, 99725 || 52158))",
                "([#1, #3, #9, #11, #20, #23] -> #6, (6303, _, 20046, 87506, 36156, 76983 || _))",
                "([#15] -> #15, (_ || 77059))",
            ],
            true,
            false,
        ),
        (
            bounded,
            &[
                "([#16, #18, #19] -> #6, (77219, 73501, 2866 || 9283))",
                "([#4, #6, #18] -> #19, (96182, 7172, 77943 || 41876))",
                "([#24] -> #24, (_ || 87645))",
                "([#2, #10, #14, #21] -> #24, (73341, 38459, 81525, 82078 || 66140))",
                "([#14] -> #21, (44738 || 8413))",
                "([#1, #2, #3] -> #6, (_, _, 35168 || _))",
                "([#2, #3, #9, #20] -> #1, (6567, 54442, 28426, 25610 || 37319))",
                "([#13, #17] -> #12, (62755, 99725 || 52158))",
                "([#15] -> #15, (_ || 77059))",
            ],
            false,
            false,
        ),
        (
            dense(1),
            &[
                "([#2, #3, #6] -> #4, (9, 20, _ || _))",
                "([#1, #2, #6] -> #4, (_, 14, _ || _))",
                "([#1, #2] -> #3, (19, _ || _))",
                "([#2, #6] -> #1, (18, _ || _))",
                "([#1] -> #2, (15 || 15))",
                "([#2, #4] -> #2, (17, 1 || 7))",
                "([#2] -> #0, (x || x))",
                "([#7] -> #7, (_ || 8))",
                "([#3] -> #5, (x || x))",
            ],
            true,
            false,
        ),
        (
            dense(5),
            &[
                "([#0, #2] -> #4, (7, 17 || _))",
                "([#2, #3, #4] -> #0, (6, _, _ || _))",
                "([#1] -> #1, (_ || 14))",
                "([#4] -> #1, (3 || 12))",
                "([#4] -> #2, (1 || 19))",
                "([#3] -> #0, (6 || _))",
                "([#4] -> #1, (14 || 18))",
                "([#2] -> #0, (12 || 7))",
                "([#2] -> #3, (16 || 13))",
                "([#0, #3] -> #2, (20, _ || _))",
                "([#2] -> #1, (10 || 12))",
                "([#5] -> #5, (_ || 14))",
            ],
            true,
            false,
        ),
        (
            dense(9),
            &["([#0] -> #0, (_ || 1000))", "([#0] -> #0, (_ || 1001))"],
            true,
            true,
        ),
    ];
    for (case, cfds, complete, always_empty) in expected {
        let got = cover_of(case);
        assert_eq!(got.0, cfds, "{case:?}");
        assert_eq!((got.1, got.2), (complete, always_empty), "{case:?}");
    }
}
