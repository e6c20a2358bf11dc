//! End-to-end tests of the `cfdprop` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cfdprop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfdprop"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cfdprop-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const GOOD: &str = r#"
schema R1(AC: string, city: string, zip: string, street: string);
cfd f1: R1([zip] -> [street], (_ || _));
cfd f2: R1([AC] -> [city], (_ || _));
view V = product(R1, const(CC: '44'));
vcfd phi1: V([CC, zip] -> [street], ('44', _ || _));
vcfd phi2: V([CC, AC] -> [city], ('44', _ || _));
"#;

const BAD: &str = r#"
schema R1(AC: string, city: string);
view V = R1;
vcfd nope: V([AC] -> [city], (_ || _));
"#;

#[test]
fn help_prints_usage() {
    let out = cfdprop(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("cover"));
}

/// Every subcommand the `run()` dispatch accepts has a usage line in
/// `--help`.
#[test]
fn help_lists_every_dispatched_subcommand() {
    let src = include_str!("../src/main.rs");
    let start = src.find("fn run(").expect("run() dispatch");
    let end = start + src[start..].find("\n}\n").expect("end of run()");
    let subcommands: Vec<&str> = src[start..end]
        .split("Some(\"")
        .skip(1)
        .filter_map(|arm| arm.split('"').next())
        .filter(|name| !name.starts_with('-'))
        .collect();
    assert!(subcommands.len() >= 12, "{subcommands:?}");
    let out = cfdprop(&["--help"]);
    let help = String::from_utf8_lossy(&out.stdout);
    for name in subcommands {
        assert!(
            help.contains(&format!("cfdprop {name} ")),
            "`{name}` is dispatched but missing from --help"
        );
    }
}

#[test]
fn unknown_subcommand_fails() {
    let out = cfdprop(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn check_propagated_exits_zero() {
    let f = write_temp("good.cfd", GOOD);
    let out = cfdprop(&["check", f.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert_eq!(text.matches("PROPAGATED").count(), 2);
    assert!(!text.contains("NOT PROPAGATED"));
}

#[test]
fn check_unpropagated_exits_nonzero_with_witness() {
    let f = write_temp("bad.cfd", BAD);
    let out = cfdprop(&["check", f.to_str().unwrap()]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("NOT PROPAGATED"));
    assert!(text.contains("counterexample"));
}

#[test]
fn cover_lists_cfds() {
    let f = write_temp("good2.cfd", GOOD);
    let out = cfdprop(&["cover", f.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("propagated CFD(s)"), "{text}");
    assert!(text.contains("CC"), "constant column CFD expected: {text}");
}

#[test]
fn empty_reports_realizable() {
    let f = write_temp("good3.cfd", GOOD);
    let out = cfdprop(&["empty", f.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("realizable"));
}

#[test]
fn empty_detects_always_empty() {
    let f = write_temp(
        "empty.cfd",
        r#"
        schema R(A: int, B: int);
        cfd R([A] -> [B], (_ || 1));
        view V = select(R, B = 2);
    "#,
    );
    let out = cfdprop(&["empty", f.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ALWAYS EMPTY"));
}

#[test]
fn consistency_flags_conflicts() {
    let f = write_temp(
        "incons.cfd",
        r#"
        schema R(A: int);
        cfd R([A] -> [A], (_ || 1));
        cfd R([A] -> [A], (_ || 2));
    "#,
    );
    let out = cfdprop(&["consistency", f.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("INCONSISTENT"));

    let f = write_temp(
        "cons.cfd",
        "schema R(A: int, B: int);\ncfd R([A] -> [B], (_ || _));\n",
    );
    let out = cfdprop(&["consistency", f.to_str().unwrap()]);
    assert!(out.status.success());
}

#[test]
fn gen_output_parses_and_analyzes() {
    let out = cfdprop(&[
        "gen",
        "--relations",
        "3",
        "--cfds",
        "6",
        "--y",
        "4",
        "--f",
        "2",
        "--ec",
        "2",
        "--seed",
        "9",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let f = write_temp("gen.cfd", &text);
    // the generated document must itself be parsable and cover-able
    let out2 = cfdprop(&["cover", f.to_str().unwrap()]);
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
}

#[test]
fn missing_file_reports_error() {
    let out = cfdprop(&["check", "/nonexistent/nope.cfd"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn parse_error_reports_position() {
    let f = write_temp("syntax.cfd", "schema R(A: int)");
    let out = cfdprop(&["check", f.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(":"), "position expected: {err}");
}

const DIRTY: &str = r#"
schema R1(AC: string, city: string);
cfd f2: R1([AC] -> [city], (_ || _));
cfd k: R1([AC] -> [city], ('20' || 'ldn'));
row R1('20', 'ldn');
row R1('20', 'edi');
row R1('31', 'ams');
"#;

#[test]
fn clean_detects_violations_and_exits_nonzero() {
    let f = write_temp("dirty.cfd", DIRTY);
    let out = cfdprop(&["clean", f.to_str().unwrap()]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violates"), "{text}");
    assert!(text.contains("'edi'"), "offending value shown: {text}");
}

#[test]
fn clean_with_repair_exits_zero_and_prints_fixed_table() {
    let f = write_temp("dirty2.cfd", DIRTY);
    let out = cfdprop(&["clean", f.to_str().unwrap(), "--repair"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("repair"), "{text}");
    assert!(text.contains("clean = true"), "{text}");
}

#[test]
fn clean_on_consistent_data_reports_clean() {
    let f = write_temp(
        "ok.cfd",
        r#"
        schema R1(AC: string, city: string);
        cfd f2: R1([AC] -> [city], (_ || _));
        row R1('20', 'ldn');
        row R1('31', 'ams');
    "#,
    );
    let out = cfdprop(&["clean", f.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no violations"));
}

#[test]
fn clean_detector_flag_selects_engine() {
    let f = write_temp("dirty3.cfd", DIRTY);
    let columnar = cfdprop(&["clean", f.to_str().unwrap(), "--detector", "columnar"]);
    let rowwise = cfdprop(&["clean", f.to_str().unwrap(), "--detector", "rowwise"]);
    assert!(!columnar.status.success());
    assert!(!rowwise.status.success());
    assert_eq!(
        String::from_utf8_lossy(&columnar.stdout),
        String::from_utf8_lossy(&rowwise.stdout),
        "both engines must report identical violations"
    );
    let delta = cfdprop(&["clean", f.to_str().unwrap(), "--detector", "delta"]);
    assert!(!delta.status.success());
    assert_eq!(
        String::from_utf8_lossy(&columnar.stdout),
        String::from_utf8_lossy(&delta.stdout),
        "the delta engine must report identical violations"
    );
    let bad = cfdprop(&["clean", f.to_str().unwrap(), "--detector", "quantum"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown detector"));
    let dangling = cfdprop(&["clean", f.to_str().unwrap(), "--detector"]);
    assert!(!dangling.status.success());
    assert!(String::from_utf8_lossy(&dangling.stderr).contains("requires a value"));
}

#[test]
fn apply_updates_reports_added_and_retired_violations() {
    let f = write_temp("upd_base.cfd", DIRTY);
    // Batch 1 retires the ('20' → ldn/edi) conflicts by deleting the dirty
    // row; batch 2 re-creates a conflict on a fresh key.
    let u = write_temp(
        "script.upd",
        r#"
        delete R1('20', 'edi');
        commit;
        insert R1('31', 'rtm');
        commit;
    "#,
    );
    let out = cfdprop(&["apply-updates", f.to_str().unwrap(), u.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "the final state is dirty, so the replay exits nonzero: {text}"
    );
    assert!(text.contains("batch 1"), "{text}");
    assert!(
        text.contains("2 retired"),
        "deleting ('20','edi') retires both the FD and the constant clash: {text}"
    );
    assert!(text.contains("violation(s) added, 0 retired"), "{text}");
    assert!(text.contains("final R1"), "{text}");
}

#[test]
fn apply_updates_to_clean_state_exits_zero() {
    let f = write_temp("upd_base2.cfd", DIRTY);
    let u = write_temp(
        "script2.upd",
        "delete R1('20', 'edi'); insert R1('44', 'ldn'); commit;",
    );
    let out = cfdprop(&["apply-updates", f.to_str().unwrap(), u.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("0 violation(s)"), "{text}");
}

#[test]
fn serve_updates_streams_json_diffs_in_commit_order() {
    let f = write_temp("serve_base.cfd", DIRTY);
    let u = write_temp(
        "serve.upd",
        r#"
        delete R1('20', 'edi');
        commit;
        insert R1('31', 'rtm');
        delete R1('31', 'rtm');
        commit;
        insert R1('31', 'rtm');
        commit;
    "#,
    );
    for shards in ["1", "4"] {
        let out = cfdprop(&[
            "serve-updates",
            f.to_str().unwrap(),
            u.to_str().unwrap(),
            "--shards",
            shards,
        ]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "the final state is dirty, so the replay exits nonzero: {text}"
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 commits + summary: {text}");
        assert!(lines[0].contains("\"epoch\": 1"), "{text}");
        assert!(lines[0].contains("constant_clash"), "{text}");
        assert!(lines[0].contains("pair_conflict"), "{text}");
        // Batch 2: deletes apply before inserts, so deleting the
        // not-yet-resident ('31','rtm') is a no-op and the insert lands.
        assert!(
            lines[1].contains("\"epoch\": 2") && lines[1].contains("pair_conflict"),
            "{text}"
        );
        // Batch 3 re-inserts the now-resident tuple: an empty diff.
        assert!(
            lines[2].contains("\"added\": []") && lines[2].contains("\"removed\": []"),
            "set semantics commits an empty diff: {text}"
        );
        assert!(
            lines[3].contains("\"done\": true") && lines[3].contains("\"violations\": 1"),
            "{text}"
        );
    }
}

#[test]
fn serve_updates_validates_like_apply_updates() {
    // Same rules as apply-updates: every statement must name a known
    // relation and match its arity, even for relations the stores never
    // serve — the two replay modes must agree on script validity.
    let f = write_temp("serve_val.cfd", DIRTY);
    let u = write_temp("serve_val1.upd", "insert R1('20');");
    let out = cfdprop(&["serve-updates", f.to_str().unwrap(), u.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("arity"));
    let u = write_temp("serve_val2.upd", "insert R9('20', 'x');");
    let out = cfdprop(&["serve-updates", f.to_str().unwrap(), u.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown relation"));
}

#[test]
fn serve_updates_filters_by_cfd_and_attribute() {
    let f = write_temp("serve_filter.cfd", DIRTY);
    let u = write_temp("serve_filter.upd", "delete R1('20', 'edi'); commit;");
    // CFD 1 (the constant pattern): only the constant clash streams.
    let out = cfdprop(&[
        "serve-updates",
        f.to_str().unwrap(),
        u.to_str().unwrap(),
        "--cfd",
        "1",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "end state is clean: {text}");
    assert!(text.contains("constant_clash"), "{text}");
    assert!(!text.contains("pair_conflict"), "{text}");
    // Filtering by the RHS attribute `city` passes both CFDs.
    let out = cfdprop(&[
        "serve-updates",
        f.to_str().unwrap(),
        u.to_str().unwrap(),
        "--attr",
        "city",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("constant_clash") && text.contains("pair_conflict"),
        "{text}"
    );
    // Out-of-range CFD index and conflicting flags are rejected.
    let out = cfdprop(&[
        "serve-updates",
        f.to_str().unwrap(),
        u.to_str().unwrap(),
        "--cfd",
        "9",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let out = cfdprop(&[
        "serve-updates",
        f.to_str().unwrap(),
        u.to_str().unwrap(),
        "--cfd",
        "0",
        "--attr",
        "city",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn apply_updates_rejects_malformed_script() {
    let f = write_temp("upd_base3.cfd", DIRTY);
    let u = write_temp("script3.upd", "upsert R1('20', 'edi');");
    let out = cfdprop(&["apply-updates", f.to_str().unwrap(), u.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected"));
    let u = write_temp("script4.upd", "insert R1('20');");
    let out = cfdprop(&["apply-updates", f.to_str().unwrap(), u.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("arity"));
}

#[test]
fn clean_without_rows_errors() {
    let f = write_temp(
        "norows.cfd",
        "schema R(A: int);\ncfd R([A] -> [A], (_ || 1));\n",
    );
    let out = cfdprop(&["clean", f.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no `row` data"));
}

#[test]
fn sql_emits_detection_queries() {
    let f = write_temp("sqlgen.cfd", DIRTY);
    let out = cfdprop(&["sql", f.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GROUP BY"), "pair query expected: {text}");
    assert!(text.contains("<> 'ldn'"), "constant query expected: {text}");
}

#[test]
fn cover_handles_union_views_soundly() {
    let f = write_temp(
        "union.cfd",
        r#"
        schema R1(AC: string, city: string);
        schema R2(AC: string, city: string);
        cfd f1: R1([AC] -> [city], (_ || _));
        cfd f2: R2([AC] -> [city], (_ || _));
        view V = union(product(R1, const(CC: '44')), product(R2, const(CC: '01')));
    "#,
    );
    let out = cfdprop(&["cover", f.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("union: sound cover"), "{text}");
    assert!(text.contains("'44'"), "guarded CFD expected: {text}");
}

#[test]
fn cover_general_flag_runs() {
    let f = write_temp(
        "general.cfd",
        r#"
        schema R(F: bool, B: int, C: int);
        cfd a: R([B] -> [F], (_ || _));
        cfd b: R([F, B] -> [C], (true, _ || _));
        cfd c: R([F, B] -> [C], (false, _ || _));
        view V = project(R, B, C);
    "#,
    );
    let out = cfdprop(&["cover", f.to_str().unwrap(), "--general"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("general setting"), "{text}");
    assert!(
        text.contains("finite-domain gain"),
        "the B → C gain: {text}"
    );
}

#[test]
fn testdata_dirty_customers_end_to_end() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/dirty_customers.cfd"
    );
    let detect = cfdprop(&["clean", path]);
    assert!(!detect.status.success(), "three dirty rows must be flagged");
    let text = String::from_utf8_lossy(&detect.stdout);
    assert!(text.contains("'gla'") || text.contains("'edi'"), "{text}");

    let fix = cfdprop(&["clean", path, "--repair"]);
    assert!(fix.status.success());
    assert!(String::from_utf8_lossy(&fix.stdout).contains("clean = true"));

    let sql = cfdprop(&["sql", path]);
    assert!(sql.status.success());
    let text = String::from_utf8_lossy(&sql.stdout);
    assert!(text.contains(r#""cust""#), "{text}");
}

const CIND_DOC: &str = r#"
schema orders(cust: int, country: string);
schema customers(id: int, cc: string);
cind psi1: orders[cust] <= customers[id];
cind psi2: orders[cust; country = 'uk'] <= customers[id; cc = '44'];
view uk_orders = select(orders, country = 'uk');
row orders(7, 'uk');
row customers(7, '44');
"#;

#[test]
fn cind_validates_and_propagates() {
    let f = write_temp("cinds.cfd", CIND_DOC);
    let out = cfdprop(&["cind", f.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert_eq!(text.matches("SATISFIED").count(), 2, "{text}");
    assert!(text.contains("propagated CIND(s)"), "{text}");
    assert!(text.contains("uk_orders["), "view CINDs listed: {text}");
}

#[test]
fn cind_reports_data_violations() {
    let f = write_temp(
        "cinds_bad.cfd",
        r#"
        schema orders(cust: int, country: string);
        schema customers(id: int, cc: string);
        cind psi1: orders[cust] <= customers[id];
        row orders(9, 'us');
    "#,
    );
    let out = cfdprop(&["cind", f.to_str().unwrap()]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATED"), "{text}");
    assert!(text.contains("no witness for (9"), "{text}");
}

#[test]
fn cind_without_statements_errors() {
    let f = write_temp("nocind.cfd", "schema R(A: int);\n");
    let out = cfdprop(&["cind", f.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no `cind`"));
}

#[test]
fn serve_updates_multi_streams_both_violation_classes() {
    let cfd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/orders_lineitems.cfd"
    );
    let upd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/orders_lineitems.upd"
    );
    let out = cfdprop(&["serve-updates", cfd, upd, "--multi", "--shards", "2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fixture replays clean: {text}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "three commits + summary: {text}");
    // Batch 1 retires the order-status CFD conflict; batch 2 the c1
    // orphan; batch 3 the c2 uncovered open order.
    assert!(lines[0].contains("\"relation\": \"orders\"") && lines[0].contains("pair_conflict"));
    assert!(
        lines[1].contains("\"cind_removed\": [{\"cind\": 0"),
        "{text}"
    );
    assert!(
        lines[2].contains("\"cind_removed\": [{\"cind\": 1"),
        "{text}"
    );
    assert!(
        lines[3].contains("\"violations\": 0") && lines[3].contains("\"cind_violations\": 0"),
        "{text}"
    );
    // Epochs are one global clock across relations.
    assert!(lines[1].contains("\"epoch\": 2") && lines[2].contains("\"epoch\": 3"));
}

#[test]
fn serve_updates_multi_filters_by_cind_and_rel() {
    let cfd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/orders_lineitems.cfd"
    );
    let upd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/orders_lineitems.upd"
    );
    let out = cfdprop(&["serve-updates", cfd, upd, "--multi", "--cind", "1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("pair_conflict"),
        "CFD noise filtered: {text}"
    );
    assert!(
        !text.contains("{\"cind\": 0"),
        "other CIND filtered: {text}"
    );
    assert!(text.contains("{\"cind\": 1"), "{text}");

    // --rel lineitems admits its own CFD events plus every CIND
    // touching it on either side (both fixture CINDs do).
    let out = cfdprop(&["serve-updates", cfd, upd, "--multi", "--rel", "lineitems"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("{\"cind\": 0") && text.contains("{\"cind\": 1"),
        "{text}"
    );

    // Bad flag combinations and ranges are typed errors.
    let out = cfdprop(&["serve-updates", cfd, upd, "--multi", "--cfd", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--multi"));
    let out = cfdprop(&["serve-updates", cfd, upd, "--multi", "--cind", "9"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let out = cfdprop(&["serve-updates", cfd, upd, "--multi", "--rel", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown relation"));
}

#[test]
fn serve_updates_view_streams_live_view_events() {
    let cfd = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/live_view.cfd");
    let upd = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/live_view.upd");
    let out = cfdprop(&["serve-updates", cfd, upd, "--view", "OV", "--shards", "2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "order 1 dangles at the end (source CIND c1), so the replay exits nonzero: {text}"
    );
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "four commits + summary: {text}");
    // Batch 1: customer bob arrives, order 2 joins into the view.
    assert!(
        lines[0].contains("\"view\": \"OV\"")
            && lines[0].contains("\"rows_added\": [[2, \"bob\", \"open\", \"silver\"]]"),
        "{text}"
    );
    // The view filter drops the base CFD/CIND streams entirely.
    assert!(lines[0].contains("\"added\": [], \"removed\": [], \"cind_added\": []"));
    // Batch 2: a second status for order 1 — the view FD vf1 breaks.
    assert!(
        lines[1].contains("\"epoch\": 2") && lines[1].contains("pair_conflict"),
        "{text}"
    );
    // Batch 3 retires it again.
    assert!(lines[2].contains("\"removed\": [{\"cfd\": 0"), "{text}");
    // Batch 4: customer ann leaves; the join drops order 1's row with
    // no view-CIND churn (orphan and member delete cancel).
    assert!(
        lines[3].contains("\"rows_removed\": [[1, \"ann\", \"open\", \"gold\"]]")
            && lines[3].contains("\"cind_added\": []"),
        "{text}"
    );
    // The summary separates view violations (none) from the source
    // CIND violation that remains.
    assert!(
        lines[4].contains("\"view_violations\": 0") && lines[4].contains("\"cind_violations\": 1"),
        "{text}"
    );
}

#[test]
fn serve_updates_view_streams_stacked_dag_events() {
    let cfd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/stacked_views.cfd"
    );
    let upd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/stacked_views.upd"
    );
    let out = cfdprop(&["serve-updates", cfd, upd, "--view", "GOLD", "--shards", "2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "the script leaves f1 and c1 dirty at the source, so the replay exits nonzero: {text}"
    );
    let lines: Vec<&str> = text.lines().collect();
    // Batches 1 (silver bob) and 2 (union overlap cancels) do not move
    // GOLD; batches 3-5 do. Three streamed commits plus the summary.
    assert_eq!(lines.len(), 4, "{text}");
    // Batch 3: the shipped duplicate flows down ALLO -> OC -> GOLD in
    // one topological refresh.
    assert!(
        lines[0].contains("\"view\": \"GOLD\"")
            && lines[0].contains("\"rows_added\": [[1, \"ann\", \"shipped\", \"gold\"]]"),
        "{text}"
    );
    // Batch 4: bob's gold promotion enters GOLD through OC.
    assert!(
        lines[1].contains("\"rows_added\": [[2, \"bob\", \"open\", \"gold\"]]"),
        "{text}"
    );
    // Batch 5: every ann row drains.
    assert!(
        lines[2].contains("\"rows_removed\"")
            && lines[2].contains("[1, \"ann\", \"open\", \"gold\"]")
            && lines[2].contains("[1, \"ann\", \"shipped\", \"gold\"]"),
        "{text}"
    );
}

#[test]
fn serve_updates_view_file_serves_a_stacked_dag_over_the_document() {
    let cfd = write_temp(
        "vf_base.cfd",
        r#"
        schema orders(oid: int, cust: string, status: string);
        row orders(1, 'ann', 'open');
        "#,
    );
    let views = write_temp(
        "vf_views.cfd",
        r#"
        stacked AO = orders;
        stacked OPEN = select(AO, status = 'open');
        "#,
    );
    let upd = write_temp(
        "vf.upd",
        r#"
        insert orders(2, 'bob', 'open');
        commit;
        insert orders(3, 'cara', 'shipped');
        commit;
        delete orders(1, 'ann', 'open');
        commit;
        "#,
    );
    let out = cfdprop(&[
        "serve-updates",
        cfd.to_str().unwrap(),
        upd.to_str().unwrap(),
        "--view-file",
        views.to_str().unwrap(),
        "--view",
        "OPEN",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    let lines: Vec<&str> = text.lines().collect();
    // Batch 2 moves only AO (shipped), so OPEN streams two commits.
    assert_eq!(lines.len(), 3, "{text}");
    assert!(
        lines[0].contains("\"view\": \"OPEN\"")
            && lines[0].contains("\"rows_added\": [[2, \"bob\", \"open\"]]"),
        "{text}"
    );
    assert!(
        lines[1].contains("\"rows_removed\": [[1, \"ann\", \"open\"]]"),
        "{text}"
    );
    // Batch 1 moved both views; the scheduler verdict rides the line.
    assert!(
        lines[0].contains("\"refresh\": {\"refreshed\": 2, \"skipped\": 0"),
        "{text}"
    );
    // Batch 2 (shipped) was pruned for OPEN — the cumulative counters
    // in the summary see the skip even though its line was filtered.
    assert!(
        lines[2].contains("\"views_refreshed\": 5, \"views_skipped\": 1"),
        "{text}"
    );
}

#[test]
fn serve_updates_view_file_rejects_duplicates_and_durability() {
    let cfd = write_temp(
        "vf_dup_base.cfd",
        "schema orders(oid: int, cust: string, status: string);",
    );
    let upd = write_temp("vf_dup.upd", "insert orders(1, 'ann', 'open'); commit;");
    // A duplicate registration must be a typed error, not a silent
    // second slot (the parser mirrors the catalog's uniqueness rule).
    let views = write_temp(
        "vf_dup_views.cfd",
        "stacked OPEN = orders; stacked OPEN = select(orders, status = 'open');",
    );
    let out = cfdprop(&[
        "serve-updates",
        cfd.to_str().unwrap(),
        upd.to_str().unwrap(),
        "--view-file",
        views.to_str().unwrap(),
        "--view",
        "OPEN",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate relation or view name `OPEN`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The view catalog is in-memory for now: durable serving of a
    // stacked view must refuse rather than recover a store without it.
    let views = write_temp("vf_ok_views.cfd", "stacked OPEN = orders;");
    let dir = std::env::temp_dir().join("cfdprop-cli-tests/vf-data");
    let out = cfdprop(&[
        "serve-updates",
        cfd.to_str().unwrap(),
        upd.to_str().unwrap(),
        "--view-file",
        views.to_str().unwrap(),
        "--data-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("in-memory"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_updates_view_rejects_bad_requests() {
    let cfd = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/live_view.cfd");
    let upd = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/live_view.upd");
    let out = cfdprop(&["serve-updates", cfd, upd, "--view", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown view"));
    let out = cfdprop(&["serve-updates", cfd, upd, "--view", "OV", "--cind", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
    let out = cfdprop(&["serve-updates", cfd, upd, "--view", "OV", "--cfd", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cfd/--attr"));
}

#[test]
fn apply_updates_handles_the_multi_relation_dialect() {
    let cfd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/orders_lineitems.cfd"
    );
    let upd = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/orders_lineitems.upd"
    );
    // Per-relation CFD replay of the same script: the delta engines see
    // their own relations' statements and end CFD-clean (CINDs are the
    // multistore's job).
    let out = cfdprop(&["apply-updates", cfd, upd]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(
        text.contains("final orders:") && text.contains("final lineitems:"),
        "{text}"
    );
}

#[test]
fn cind_rejects_unknown_relation_reference_with_typed_error() {
    // A CIND can only be *parsed* against known relations, so drive the
    // typed-error path through the library: the regression lives in
    // `cfd-cind`; here we pin the CLI-visible message shape instead.
    let f = write_temp(
        "cind_typed.cfd",
        r#"
        schema orders(cust: int);
        schema customers(id: int);
        cind psi: orders[cust] <= customers[id];
        row orders(3);
        "#,
    );
    let out = cfdprop(&["cind", f.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no witness for (3"));
}
