//! Integration tests driving the real `stbpu` binary
//! (`CARGO_BIN_EXE_stbpu`): round-trip parity with direct engine calls,
//! exit-code contracts for unknown names, and help-output completeness.

use stbpu_engine::{Experiment, ModelRegistry, Scenario};
use stbpu_sim::Protection;
use std::path::PathBuf;
use std::process::{Command, Output};

fn stbpu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stbpu"))
        .args(args)
        .env_remove("STBPU_BRANCHES")
        .env_remove("STBPU_SEED")
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stbpu-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

// --- round-trip parity with direct engine calls -----------------------

#[test]
fn simulate_json_is_bit_identical_to_engine_run() {
    let out = stbpu(&[
        "simulate",
        "--model",
        "st_skl@r=0.05",
        "--workload",
        "505.mcf",
        "--branches",
        "6000",
        "--seed",
        "11",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let set = Experiment::new("ref")
        .workload("505.mcf")
        .scenario(Scenario::new("st_skl@r=0.05", Protection::Stbpu))
        .branches(6000)
        .seed(11)
        .run()
        .unwrap();
    let expected = stbpu_engine::report_to_json(&set.records()[0].report, 11);
    assert_eq!(stdout(&out).trim(), expected);
}

#[test]
fn grid_csv_is_bit_identical_to_engine_run() {
    let out = stbpu(&[
        "grid",
        "--workloads",
        "505.mcf,541.leela",
        "--scenarios",
        "skl:unprotected,st_skl@r=0.05:stbpu",
        "--seeds",
        "1,2",
        "--branches",
        "3000",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let set = Experiment::new("ref")
        .workloads(["505.mcf", "541.leela"])
        .scenario(Scenario::new("skl", Protection::Unprotected))
        .scenario(Scenario::new("st_skl@r=0.05", Protection::Stbpu))
        .seeds([1, 2])
        .branches(3000)
        .run()
        .unwrap();
    assert_eq!(stdout(&out), set.to_csv());
}

#[test]
fn spec_file_grid_matches_inline_flags() {
    let spec_path = scratch("grid.toml");
    std::fs::write(
        &spec_path,
        "name = \"spec\"\nworkloads = [\"525.x264\"]\n\
         scenarios = [\"skl:unprotected\", \"skl:ucode1\"]\n\
         seeds = [3]\nbranches = 2500\n",
    )
    .unwrap();
    let via_spec = stbpu(&["grid", "--spec", spec_path.to_str().unwrap()]);
    assert!(via_spec.status.success(), "{}", stderr(&via_spec));
    let via_flags = stbpu(&[
        "grid",
        "--workloads",
        "525.x264",
        "--scenarios",
        "skl:unprotected,skl:ucode1",
        "--seeds",
        "3",
        "--branches",
        "2500",
    ]);
    assert!(via_flags.status.success(), "{}", stderr(&via_flags));
    assert_eq!(stdout(&via_spec), stdout(&via_flags));
}

#[test]
fn trace_file_round_trip_is_bit_identical_to_generator() {
    let trace_path = scratch("roundtrip.trace");
    let gen = stbpu(&[
        "trace",
        "generate",
        "--workload",
        "541.leela",
        "--branches",
        "4000",
        "--seed",
        "9",
        "--out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));

    let common = ["--model", "skl", "--seed", "9", "--format", "json"];
    let via_file = stbpu(
        &[
            &["simulate", "--trace-file", trace_path.to_str().unwrap()],
            &common[..],
        ]
        .concat(),
    );
    assert!(via_file.status.success(), "{}", stderr(&via_file));
    let via_generator = stbpu(
        &[
            &["simulate", "--workload", "541.leela", "--branches", "4000"],
            &common[..],
        ]
        .concat(),
    );
    assert!(via_generator.status.success(), "{}", stderr(&via_generator));
    assert_eq!(stdout(&via_file), stdout(&via_generator));

    // convert re-serializes bit-identically (headers normalized).
    let converted = scratch("converted.trace");
    let conv = stbpu(&[
        "trace",
        "convert",
        trace_path.to_str().unwrap(),
        converted.to_str().unwrap(),
    ]);
    assert!(conv.status.success(), "{}", stderr(&conv));
    assert_eq!(
        std::fs::read_to_string(&trace_path).unwrap(),
        std::fs::read_to_string(&converted).unwrap()
    );
}

#[test]
fn figures_subcommand_matches_knob_scaled_output() {
    // table2 is deterministic and scale-independent: the CLI must print
    // exactly what the shared implementation prints.
    let out = stbpu(&["figures", "table2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("Table II"), "{text}");
    for fn_name in ["R1", "R2", "R3", "R4", "Rt", "Rp"] {
        assert!(text.contains(fn_name), "missing {fn_name}");
    }
}

// --- exit codes and suggestion lists ----------------------------------

#[test]
fn unknown_model_exits_nonzero_with_suggestions() {
    let out = stbpu(&["simulate", "--model", "warp_drive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown model 'warp_drive'"), "{err}");
    // The registry's full suggestion list is part of the message.
    for name in ModelRegistry::standard().names() {
        assert!(err.contains(name), "suggestion list missing {name}: {err}");
    }
}

#[test]
fn unknown_workload_exits_nonzero_with_suggestions() {
    let out = stbpu(&["simulate", "--model", "skl", "--workload", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown workload profile 'warp'"), "{err}");
    for known in ["505.mcf", "541.leela", "apache2_prefork_c128"] {
        assert!(err.contains(known), "{err}");
    }

    let out = stbpu(&[
        "grid",
        "--workloads",
        "warp",
        "--scenarios",
        "skl:unprotected",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown workload"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_command_flag_and_figure_exit_nonzero() {
    assert_eq!(stbpu(&["warp"]).status.code(), Some(2));
    assert_eq!(
        stbpu(&["simulate", "--model", "skl", "--brnaches", "5"])
            .status
            .code(),
        Some(2)
    );
    let out = stbpu(&["figures", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("fig3"), "{}", stderr(&out));
}

#[test]
fn bad_model_params_exit_nonzero() {
    let out = stbpu(&["simulate", "--model", "st_skl@r=zero"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("bad parameters"), "{}", stderr(&out));
}

// --- help completeness ------------------------------------------------

#[test]
fn main_help_lists_every_registered_scheme_and_subcommand() {
    let out = stbpu(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let registry = ModelRegistry::standard();
    for name in registry.names() {
        assert!(text.contains(name), "help missing model {name}");
    }
    for alias in registry.alias_names() {
        assert!(text.contains(alias), "help missing alias {alias}");
    }
    for sub in [
        "simulate", "grid", "attack", "trace", "figures", "bench", "list",
    ] {
        assert!(text.contains(sub), "help missing subcommand {sub}");
    }
    // Workload catalogs are live too.
    for workload in ["505.mcf", "mysql_256con_50s", "chrome-1jetstream"] {
        assert!(text.contains(workload), "help missing workload {workload}");
    }
}

#[test]
fn subcommand_help_includes_model_catalog() {
    let out = stbpu(&["simulate", "--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("--model"), "{text}");
    for name in ModelRegistry::standard().names() {
        assert!(text.contains(name), "simulate --help missing {name}");
    }
    let out = stbpu(&["help", "figures"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("--quick"));
}

#[test]
fn figures_list_covers_all_ten_harnesses() {
    let out = stbpu(&["figures", "--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for f in stbpu_bench::figures::ALL {
        assert!(text.contains(f.name), "missing {}", f.name);
    }
}

// --- bench + baseline gate --------------------------------------------

#[test]
fn bench_baseline_round_trip_and_drift_detection() {
    let dir = scratch("bench-out");
    let baseline = scratch("baseline.json");
    let dir_s = dir.to_str().unwrap();
    let base_s = baseline.to_str().unwrap();
    let config = [
        "bench",
        "--branches",
        "10000",
        "--seed",
        "5",
        "--out-dir",
        dir_s,
        "--json",
    ];

    // Record a baseline, then a fresh identical run must pass the gate.
    let rec = stbpu(&[&config[..], &["--update-baseline", base_s]].concat());
    assert!(rec.status.success(), "{}", stderr(&rec));
    let json = stdout(&rec);
    assert!(json.starts_with('[') && json.contains("\"oae\":"), "{json}");
    for scheme in [
        "baseline",
        "stbpu",
        "ucode1",
        "conservative",
        "st_tage64",
        "tagescl",
        "st_tagescl",
        "ittage",
        "st_ittage",
    ] {
        assert!(
            dir.join(format!("BENCH_{scheme}.json")).is_file(),
            "missing BENCH_{scheme}.json"
        );
    }
    let check = stbpu(&[&config[..], &["--check", base_s]].concat());
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(stderr(&check).contains("baseline check passed"));

    // Tampering with one scheme's OAE must fail the gate with the drift
    // named.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let tampered = text.replacen("\"stbpu\": 0.", "\"stbpu\": 1.", 1);
    assert_ne!(text, tampered, "tamper point not found in {text}");
    std::fs::write(&baseline, tampered).unwrap();
    let fail = stbpu(&[&config[..], &["--check", base_s]].concat());
    assert_eq!(fail.status.code(), Some(1));
    let err = stderr(&fail);
    assert!(err.contains("scheme 'stbpu'"), "{err}");
    assert!(err.contains("--update-baseline"), "{err}");

    // A config mismatch is refused outright.
    let mismatch = stbpu(&[
        "bench",
        "--branches",
        "9999",
        "--seed",
        "5",
        "--out-dir",
        dir_s,
        "--check",
        base_s,
    ]);
    assert_eq!(mismatch.status.code(), Some(1));
    assert!(
        stderr(&mismatch).contains("was recorded for"),
        "{}",
        stderr(&mismatch)
    );
}

#[test]
fn bench_output_is_deterministic_for_fixed_seed() {
    let dir = scratch("bench-det");
    let run = |n: &str| {
        let out = stbpu(&[
            "bench",
            "--branches",
            "8000",
            "--seed",
            "7",
            "--out-dir",
            dir.join(n).to_str().unwrap(),
            "--json",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let (a, b) = (run("a"), run("b"));
    // Strip the wall-clock fields; everything else must be identical.
    let strip = |s: &str| {
        s.split(',')
            .filter(|f| !f.contains("elapsed_s") && !f.contains("branches_per_s"))
            .collect::<Vec<_>>()
            .join(",")
    };
    assert_eq!(strip(&a), strip(&b));
}

#[test]
fn bench_throughput_suite_emits_trajectory_and_warn_only_drift() {
    let dir = scratch("bench-tp");
    let baseline = scratch("baseline-tp.json");
    let dir_s = dir.to_str().unwrap();
    let base_s = baseline.to_str().unwrap();
    let config = [
        "bench",
        "--suite",
        "throughput",
        "--branches",
        "8000",
        "--seed",
        "5",
        "--out-dir",
        dir_s,
        "--json",
    ];

    // The suite runs batched AND single-event paths (bit-identity is a
    // hard internal check — a divergence exits 1) and emits one combined
    // trajectory record with both rates.
    let rec = stbpu(&[&config[..], &["--update-baseline", base_s]].concat());
    assert!(rec.status.success(), "{}", stderr(&rec));
    let json = stdout(&rec);
    assert!(
        json.contains("\"single_branches_per_s\":") && json.contains("\"batch_speedup\":"),
        "{json}"
    );
    let record = std::fs::read_to_string(dir.join("BENCH_throughput.json")).expect("trajectory");
    let doc = stbpu_engine::minijson::Json::parse(record.trim()).expect("valid JSON");
    assert_eq!(
        doc.get("suite").and_then(|s| s.as_str()),
        Some("throughput")
    );
    assert_eq!(doc.get("schemes").unwrap().as_array().unwrap().len(), 9);

    // The baseline gained a throughput section…
    let base_doc =
        stbpu_engine::minijson::Json::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    assert!(
        base_doc
            .get("throughput")
            .and_then(|t| t.get("st_tage64"))
            .and_then(|v| v.as_f64())
            .is_some(),
        "throughput section missing"
    );

    // …and wildly-wrong throughput values produce warn-only notes, not a
    // failing exit (wall-clock is machine-dependent; see CONTRIBUTING.md).
    // Rewrite the section with values no real run can be within 10 % of,
    // so the drift-note path definitely fires (not just the pass note).
    let text = std::fs::read_to_string(&baseline).unwrap();
    let idx = text.find("\"throughput\"").unwrap();
    let tampered = format!(
        "{}\"throughput\": {{\n    \"baseline\": 1,\n    \"stbpu\": 1,\n    \"ucode1\": 1,\n    \
         \"conservative\": 1,\n    \"st_tage64\": 1\n  }}\n}}\n",
        &text[..idx]
    );
    std::fs::write(&baseline, &tampered).unwrap();
    let warn = stbpu(&[&config[..], &["--check", base_s]].concat());
    assert!(warn.status.success(), "{}", stderr(&warn));
    let warn_err = stderr(&warn);
    assert!(
        warn_err.contains("throughput suite note (warn-only)") && warn_err.contains("% vs"),
        "expected suite-named drift notes: {warn_err}"
    );

    // OAE tampering in the default suite still fails hard — the throughput
    // section does not weaken the accuracy gate.
    let check = stbpu(&[
        "bench",
        "--branches",
        "8000",
        "--seed",
        "5",
        "--out-dir",
        dir_s,
        "--check",
        base_s,
    ]);
    assert!(check.status.success(), "{}", stderr(&check));
}

// --- attack telemetry --------------------------------------------------

#[test]
fn attack_json_telemetry_is_machine_readable() {
    let out = stbpu(&["attack", "--branches", "20000", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&out).trim()).expect("valid JSON");
    let st = doc.get("stbpu").expect("stbpu section");
    assert!(st.get("rerandomizations").unwrap().as_u64().unwrap() > 0);
    assert!(!st.get("marks").unwrap().as_array().unwrap().is_empty());
    let uc = doc.get("ucode1").expect("ucode1 section");
    assert!(uc.get("flushes").unwrap().as_u64().unwrap() > 0);
}

// --- binary .stbt format: round trips, golden gate, ingest suite -------

#[test]
fn stbt_round_trips_are_byte_identical_and_simulate_identically() {
    let stbt = scratch("fmt.stbt");
    let line = scratch("fmt.trace");
    let back = scratch("fmt-back.stbt");
    let gen = stbpu(&[
        "trace",
        "generate",
        "--workload",
        "505.mcf",
        "--branches",
        "5000",
        "--seed",
        "3",
        "--out",
        stbt.to_str().unwrap(),
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    // The .stbt extension alone selects the binary format.
    let header = std::fs::read(&stbt).unwrap();
    assert_eq!(&header[..4], b"STBT");

    // binary -> line -> binary is byte-identical.
    for (from, to) in [(&stbt, &line), (&line, &back)] {
        let conv = stbpu(&[
            "trace",
            "convert",
            from.to_str().unwrap(),
            to.to_str().unwrap(),
        ]);
        assert!(conv.status.success(), "{}", stderr(&conv));
    }
    assert_eq!(
        std::fs::read(&stbt).unwrap(),
        std::fs::read(&back).unwrap(),
        "binary -> line -> binary drifted"
    );

    // Simulating either file is bit-identical: same stream, same report.
    let common = [
        "--model",
        "st_skl@r=0.05",
        "--seed",
        "3",
        "--format",
        "json",
    ];
    let via_bin = stbpu(
        &[
            &["simulate", "--trace-file", stbt.to_str().unwrap()],
            &common[..],
        ]
        .concat(),
    );
    let via_line = stbpu(
        &[
            &["simulate", "--trace-file", line.to_str().unwrap()],
            &common[..],
        ]
        .concat(),
    );
    assert!(via_bin.status.success(), "{}", stderr(&via_bin));
    assert_eq!(stdout(&via_bin), stdout(&via_line));

    // inspect reports the detected format, size and scan rate.
    let ins = stbpu(&["trace", "inspect", stbt.to_str().unwrap(), "--json"]);
    assert!(ins.status.success(), "{}", stderr(&ins));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&ins).trim()).expect("valid JSON");
    assert_eq!(doc.get("format").unwrap().as_str().unwrap(), "binary");
    assert_eq!(
        doc.get("bytes").unwrap().as_u64().unwrap(),
        std::fs::metadata(&stbt).unwrap().len()
    );
    assert_eq!(doc.get("branches").unwrap().as_u64().unwrap(), 5000);
    assert!(doc.get("records_per_s").unwrap().as_f64().unwrap() > 0.0);
    let ins_line = stbpu(&["trace", "inspect", line.to_str().unwrap(), "--json"]);
    let doc = stbpu_engine::minijson::Json::parse(stdout(&ins_line).trim()).expect("valid JSON");
    assert_eq!(doc.get("format").unwrap().as_str().unwrap(), "line");
}

/// The committed golden fixture is the local mirror of CI's
/// format-stability gate: any byte or OAE drift means the on-disk format
/// changed without a version bump + fixture refresh (see CONTRIBUTING.md).
#[test]
fn golden_stbt_fixture_is_format_stable() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = repo.join("ci/golden.stbt");
    let golden_oae = repo.join("ci/golden-oae.json");
    let line = scratch("golden.trace");
    let back = scratch("golden-back.stbt");

    for (from, to) in [
        (golden.to_str().unwrap(), line.to_str().unwrap()),
        (line.to_str().unwrap(), back.to_str().unwrap()),
    ] {
        let conv = stbpu(&["trace", "convert", from, to]);
        assert!(conv.status.success(), "{}", stderr(&conv));
    }
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&back).unwrap(),
        "golden .stbt no longer round-trips byte-identically — if the format \
         change is intentional, bump binfmt::VERSION and refresh the fixture \
         (see CONTRIBUTING.md)"
    );

    let sim = stbpu(&[
        "simulate",
        "--model",
        "st_skl@r=0.05",
        "--trace-file",
        golden.to_str().unwrap(),
        "--warmup-branches",
        "0",
        "--seed",
        "42",
        "--format",
        "json",
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    assert_eq!(
        stdout(&sim).trim(),
        std::fs::read_to_string(&golden_oae).unwrap().trim(),
        "golden .stbt OAE drifted from ci/golden-oae.json"
    );
}

/// The committed golden `.cbp` fixture is the local mirror of CI's CBP
/// stable-leg gate: the championship container must convert through
/// `.stbt` and back byte-identically, `--from` must assert the detected
/// input format, and simulating the fixture with the CBP-class predictor
/// must reproduce the committed report.
#[test]
fn golden_cbp_fixture_is_format_stable() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = repo.join("ci/golden.cbp");
    let golden_oae = repo.join("ci/golden-cbp-oae.json");
    let stbt = scratch("golden-cbp.stbt");
    let back = scratch("golden-back.cbp");

    // The input-format assertion holds for the fixture…
    let conv = stbpu(&[
        "trace",
        "convert",
        "--from",
        "cbp",
        golden.to_str().unwrap(),
        stbt.to_str().unwrap(),
    ]);
    assert!(conv.status.success(), "{}", stderr(&conv));
    assert_eq!(&std::fs::read(&stbt).unwrap()[..4], b"STBT");
    // …and fails loudly when asserted against the wrong container.
    let wrong = stbpu(&[
        "trace",
        "convert",
        "--from",
        "cbp",
        stbt.to_str().unwrap(),
        back.to_str().unwrap(),
    ]);
    assert_eq!(wrong.status.code(), Some(1));
    assert!(stderr(&wrong).contains("--from cbp"), "{}", stderr(&wrong));

    let conv = stbpu(&[
        "trace",
        "convert",
        "--from",
        "binary",
        stbt.to_str().unwrap(),
        back.to_str().unwrap(),
    ]);
    assert!(conv.status.success(), "{}", stderr(&conv));
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&back).unwrap(),
        "golden .cbp no longer round-trips byte-identically through .stbt — \
         if the format change is intentional, bump cbp::VERSION and refresh \
         the fixture (see CONTRIBUTING.md)"
    );

    let sim = stbpu(&[
        "simulate",
        "--model",
        "tagescl",
        "--trace-file",
        golden.to_str().unwrap(),
        "--warmup-branches",
        "0",
        "--seed",
        "42",
        "--format",
        "json",
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    assert_eq!(
        stdout(&sim).trim(),
        std::fs::read_to_string(&golden_oae).unwrap().trim(),
        "golden .cbp OAE drifted from ci/golden-cbp-oae.json"
    );
}

#[test]
fn bench_ingest_suite_gates_formats_and_reports_speedup() {
    let dir = scratch("ingest-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let out = stbpu(&[
        "bench",
        "--suite",
        "ingest",
        "--branches",
        "20000",
        "--seed",
        "6",
        "--json",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&out).trim()).expect("valid JSON");
    assert_eq!(doc.get("suite").unwrap().as_str().unwrap(), "ingest");
    // The .stbt file must be dramatically smaller than the line file
    // (acceptance: <= 40% — in practice ~20%).
    assert!(doc.get("size_ratio").unwrap().as_f64().unwrap() < 0.4);
    assert!(doc.get("ingest_speedup").unwrap().as_f64().unwrap() > 1.0);
    let schemes = doc.get("schemes").unwrap().as_array().unwrap();
    assert_eq!(schemes.len(), 9);
    for s in schemes {
        assert!(s.get("line_branches_per_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(s.get("binary_branches_per_s").unwrap().as_f64().unwrap() > 0.0);
    }
    // The emitted artifact matches stdout.
    let record = std::fs::read_to_string(dir.join("BENCH_ingest.json")).unwrap();
    assert_eq!(record.trim(), stdout(&out).trim());
    // --update-baseline is a usage error for this suite.
    let upd = stbpu(&[
        "bench",
        "--suite",
        "ingest",
        "--quick",
        "--update-baseline",
        "x.json",
    ]);
    assert_eq!(upd.status.code(), Some(2));
}

// --- workload suites ---------------------------------------------------

#[test]
fn grid_suite_runs_the_named_bundle() {
    let out_path = scratch("suite.csv");
    let out = stbpu(&[
        "grid",
        "--suite",
        "stress",
        "--branches",
        "1000",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let csv = std::fs::read_to_string(&out_path).unwrap();
    // 6 workloads x 5 scenarios x 1 seed + header.
    assert_eq!(csv.lines().count(), 31, "{csv}");
    for workload in ["apache2_prefork_c512", "mysql_256con_50s", "502.gcc"] {
        assert!(csv.contains(workload), "missing {workload}");
    }

    // Inline flags still override the suite's bundle.
    let narrowed = stbpu(&[
        "grid",
        "--suite",
        "stress",
        "--workloads",
        "541.leela",
        "--branches",
        "1000",
    ]);
    assert!(narrowed.status.success(), "{}", stderr(&narrowed));
    let csv = stdout(&narrowed);
    assert_eq!(csv.lines().count(), 6, "{csv}");
    assert!(!csv.contains("502.gcc"));
}

#[test]
fn unknown_suite_exits_nonzero_with_catalog() {
    let out = stbpu(&["grid", "--suite", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown workload suite 'warp'"), "{err}");
    for name in ["paper", "spec-like", "adversarial", "stress", "realtrace"] {
        assert!(err.contains(name), "catalog missing {name}: {err}");
    }
    // The suites are listable.
    let list = stbpu(&["list", "suites"]);
    assert!(list.status.success());
    for name in ["paper", "spec-like", "adversarial", "stress", "realtrace"] {
        assert!(stdout(&list).contains(name), "list missing {name}");
    }
}

// --- the serve daemon, self-test and bench suite ----------------------

#[test]
fn serve_client_json_is_byte_identical_to_simulate() {
    // The self-test hard-gates every streamed report bit-identical to
    // its offline reference internally; this proves the printed JSON
    // also matches `stbpu simulate` byte for byte for the same flags —
    // the exact comparison the CI smoke step makes.
    let served = stbpu(&[
        "serve",
        "--client",
        "--clients",
        "2",
        "--branches",
        "8000",
        "--seed",
        "11",
        "--warmup-branches",
        "800",
        "--json",
    ]);
    assert!(served.status.success(), "{}", stderr(&served));
    let offline = stbpu(&[
        "simulate",
        "--model",
        "st_skl",
        "--workload",
        "541.leela",
        "--branches",
        "8000",
        "--seed",
        "11",
        "--warmup-branches",
        "800",
        "--format",
        "json",
    ]);
    assert!(offline.status.success(), "{}", stderr(&offline));
    assert_eq!(stdout(&served), stdout(&offline));
}

// --- sharded simulation, checkpoints and crash-resume ------------------

#[test]
fn simulate_shards_is_byte_identical_to_sequential() {
    let common = [
        "simulate",
        "--model",
        "st_skl@r=0.05",
        "--workload",
        "505.mcf",
        "--branches",
        "20000",
        "--seed",
        "11",
        "--interval",
        "5000",
        "--format",
        "json",
    ];
    let seq = stbpu(&common);
    assert!(seq.status.success(), "{}", stderr(&seq));
    let sharded = stbpu(&[&common[..], &["--shards", "4"]].concat());
    assert!(sharded.status.success(), "{}", stderr(&sharded));
    assert_eq!(stdout(&seq), stdout(&sharded), "sharded output drifted");

    // With a checkpoint cache, the second sharded run reuses every
    // boundary checkpoint (pass 1 skipped) and stays byte-identical.
    let cache = scratch("shard-cache");
    let cached = [&common[..], &["--shards", "4", "--checkpoint-dir"]].concat();
    let cold = stbpu(&[&cached[..], &[cache.to_str().unwrap()]].concat());
    assert!(cold.status.success(), "{}", stderr(&cold));
    let warm = stbpu(&[&cached[..], &[cache.to_str().unwrap()]].concat());
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert!(
        stderr(&warm).contains("reused 3 cached boundary checkpoints"),
        "{}",
        stderr(&warm)
    );
    assert_eq!(stdout(&seq), stdout(&warm), "warm sharded output drifted");
}

#[test]
fn checkpoint_create_inspect_resume_round_trip() {
    let ck = scratch("mid.stck");
    let ck_s = ck.to_str().unwrap();
    let create = stbpu(&[
        "checkpoint",
        "create",
        "--model",
        "st_skl@r=0.05",
        "--workload",
        "541.leela",
        "--branches",
        "30000",
        "--seed",
        "7",
        "--at-branches",
        "12000",
        "--out",
        ck_s,
    ]);
    assert!(create.status.success(), "{}", stderr(&create));
    assert!(
        stderr(&create).contains("at branch 12000"),
        "{}",
        stderr(&create)
    );

    let ins = stbpu(&["checkpoint", "inspect", ck_s, "--json"]);
    assert!(ins.status.success(), "{}", stderr(&ins));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&ins).trim()).expect("valid JSON");
    assert_eq!(
        doc.get("model_spec").unwrap().as_str().unwrap(),
        "st_skl@r=0.05"
    );
    assert_eq!(doc.get("workload").unwrap().as_str().unwrap(), "541.leela");
    assert_eq!(doc.get("branches_seen").unwrap().as_u64().unwrap(), 12_000);
    assert_eq!(doc.get("seed").unwrap().as_u64().unwrap(), 7);
    assert_eq!(
        doc.get("version").unwrap().as_u64().unwrap(),
        u64::from(stbpu_sim::STCK_VERSION)
    );

    // Resuming from the checkpoint reproduces the uninterrupted run byte
    // for byte (model/seed/workload all come from the checkpoint).
    let resumed = stbpu(&[
        "simulate",
        "--resume-from",
        ck_s,
        "--branches",
        "30000",
        "--format",
        "json",
    ]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let plain = stbpu(&[
        "simulate",
        "--model",
        "st_skl@r=0.05",
        "--workload",
        "541.leela",
        "--branches",
        "30000",
        "--seed",
        "7",
        "--format",
        "json",
    ]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert_eq!(stdout(&resumed), stdout(&plain), "resume drifted");

    // Truncated checkpoints are runtime errors with a position, never
    // panics.
    let bytes = std::fs::read(&ck).unwrap();
    let cut = scratch("cut.stck");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
    let bad = stbpu(&["checkpoint", "inspect", cut.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(
        stderr(&bad).contains("checkpoint error at byte"),
        "{}",
        stderr(&bad)
    );
}

#[test]
fn checkpoint_and_shard_flag_misuse_exits_two() {
    let out = stbpu(&["simulate", "--resume-from", "x.stck", "--shards", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );

    let out = stbpu(&[
        "grid",
        "--workloads",
        "505.mcf",
        "--scenarios",
        "skl:unprotected",
        "--checkpoint-every",
        "1000",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--checkpoint-every requires --checkpoint-dir"),
        "{}",
        stderr(&out)
    );

    let out = stbpu(&["checkpoint", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("inspect|create"), "{}", stderr(&out));

    let out = stbpu(&["checkpoint"]);
    assert_eq!(out.status.code(), Some(2));

    let out = stbpu(&[
        "checkpoint",
        "create",
        "--model",
        "skl",
        "--at-branches",
        "10",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--out is required"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn grid_checkpoint_dir_matches_plain_and_replays_identically() {
    let dir = scratch("grid-ck");
    let grid = [
        "grid",
        "--workloads",
        "505.mcf",
        "--scenarios",
        "skl:unprotected,st_skl@r=0.05:stbpu",
        "--seeds",
        "1,2",
        "--branches",
        "5000",
    ];
    let plain = stbpu(&grid);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let ck_args = [
        &grid[..],
        &[
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "2000",
        ],
    ]
    .concat();
    let first = stbpu(&ck_args);
    assert!(first.status.success(), "{}", stderr(&first));
    assert_eq!(stdout(&plain), stdout(&first), "checkpointed grid drifted");
    // The completed-cell log now covers the whole grid: a second run
    // replays it instead of recomputing, to byte-identical output.
    let replay = stbpu(&ck_args);
    assert!(replay.status.success(), "{}", stderr(&replay));
    assert_eq!(stdout(&plain), stdout(&replay), "replayed grid drifted");
}

#[test]
fn bench_shard_suite_emits_trajectory_record() {
    let dir = scratch("shard-bench");
    let out = stbpu(&[
        "bench",
        "--suite",
        "shard",
        "--branches",
        "40000",
        "--seed",
        "5",
        "--out-dir",
        dir.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&out).trim()).expect("valid JSON");
    assert_eq!(doc.get("suite").unwrap().as_str().unwrap(), "shard");
    assert_eq!(doc.get("branches").unwrap().as_u64().unwrap(), 40_000);
    let shards = doc.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), 2, "expected N=2 and N=4 entries");
    for entry in shards {
        assert!(entry.get("cold_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(entry.get("warm_s").unwrap().as_f64().unwrap() > 0.0);
    }
    assert!(doc.get("sequential_s").unwrap().as_f64().unwrap() > 0.0);
    assert!(doc.get("warm_resume_speedup").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        doc.get("checkpoint_save_mb_per_s")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    let record = std::fs::read_to_string(dir.join("BENCH_shard.json")).expect("record written");
    assert_eq!(stdout(&out).trim(), record.trim());

    // Parity with the sequential reference is a hard internal gate, and
    // baseline recording belongs to the default suite alone.
    let upd = stbpu(&[
        "bench",
        "--suite",
        "shard",
        "--quick",
        "--update-baseline",
        "x.json",
    ]);
    assert_eq!(upd.status.code(), Some(2));
}

/// The committed golden `.stck` fixture mirrors CI's checkpoint
/// format-stability gate: any decode or resume drift means the on-disk
/// checkpoint format changed without a STCK_VERSION bump + fixture
/// refresh (see CONTRIBUTING.md).
#[test]
fn golden_stck_fixture_resumes_identically() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = repo.join("ci/golden.stck");
    let trace = repo.join("ci/golden.stbt");
    let expected = repo.join("ci/golden-resume.json");

    let ins = stbpu(&["checkpoint", "inspect", golden.to_str().unwrap(), "--json"]);
    assert!(ins.status.success(), "{}", stderr(&ins));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&ins).trim()).expect("valid JSON");
    assert_eq!(
        doc.get("model_spec").unwrap().as_str().unwrap(),
        "st_skl@r=0.05"
    );
    assert_eq!(
        doc.get("version").unwrap().as_u64().unwrap(),
        u64::from(stbpu_sim::STCK_VERSION)
    );

    // The encoder side: the CONTRIBUTING recipe must regenerate the
    // fixture byte for byte.
    let regenerated = scratch("golden-regenerated.stck");
    let create = stbpu(&[
        "checkpoint",
        "create",
        "--model",
        "st_skl@r=0.05",
        "--trace-file",
        trace.to_str().unwrap(),
        "--at-branches",
        "200",
        "--warmup-branches",
        "0",
        "--seed",
        "42",
        "--out",
        regenerated.to_str().unwrap(),
    ]);
    assert!(create.status.success(), "{}", stderr(&create));
    assert!(
        std::fs::read(&regenerated).unwrap() == std::fs::read(&golden).unwrap(),
        "re-encoding ci/golden.stck drifted — if the format change is \
         intentional, bump STCK_VERSION and refresh the fixture (see CONTRIBUTING.md)"
    );

    let sim = stbpu(&[
        "simulate",
        "--resume-from",
        golden.to_str().unwrap(),
        "--trace-file",
        trace.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    assert_eq!(
        stdout(&sim).trim(),
        std::fs::read_to_string(&expected).unwrap().trim(),
        "golden .stck resume drifted from ci/golden-resume.json — if the \
         format change is intentional, bump STCK_VERSION and refresh the \
         fixture (see CONTRIBUTING.md)"
    );
}

// --- phase clustering: trace simpoint, .stbp, bench simpoint -----------

fn stbpu_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stbpu"))
        .args(args)
        .current_dir(dir)
        .env_remove("STBPU_BRANCHES")
        .env_remove("STBPU_SEED")
        .output()
        .expect("binary runs")
}

#[test]
fn trace_simpoint_builds_deterministic_stbp_and_estimates_from_it() {
    let a = scratch("phases-a.stbp");
    let b = scratch("phases-b.stbp");
    let build = |out: &PathBuf| {
        let run = stbpu(&[
            "trace",
            "simpoint",
            "--workload",
            "505.mcf",
            "--branches",
            "30000",
            "--seed",
            "9",
            "--slice-branches",
            "1500",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(run.status.success(), "{}", stderr(&run));
    };
    build(&a);
    build(&b);
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "phase-file build is not deterministic"
    );

    // inspect understands the format instead of failing on unknown magic.
    let ins = stbpu(&["trace", "inspect", a.to_str().unwrap(), "--json"]);
    assert!(ins.status.success(), "{}", stderr(&ins));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&ins).trim()).expect("valid JSON");
    assert_eq!(doc.get("format").unwrap().as_str().unwrap(), "stbp");
    assert_eq!(doc.get("total_branches").unwrap().as_u64().unwrap(), 30_000);
    assert_eq!(doc.get("slice_branches").unwrap().as_u64().unwrap(), 1_500);
    let phases = doc.get("phases").unwrap().as_u64().unwrap();
    assert!(phases >= 1, "no phases in {doc:?}");

    // Estimation through the workload layer, with the estimated-vs-full
    // error surfaced on demand.
    let est = stbpu(&[
        "simulate",
        "--model",
        "st_skl@r=0.05",
        "--phases",
        a.to_str().unwrap(),
        "--workload",
        "505.mcf",
        "--compare-full",
        "--format",
        "json",
    ]);
    assert!(est.status.success(), "{}", stderr(&est));
    let err = stderr(&est);
    assert!(err.contains("estimated vs full"), "{err}");
    assert!(err.contains("phase estimate:"), "{err}");
    let doc = stbpu_engine::minijson::Json::parse(stdout(&est).trim()).expect("valid JSON");
    assert_eq!(doc.get("branches").unwrap().as_u64().unwrap(), 30_000);
}

/// The committed golden `.stbp` fixture mirrors CI's phase-file
/// format-stability gate: regeneration from the golden trace must be
/// byte-identical, inspect must print the committed table, and the
/// phase-based estimate must reproduce the committed report. Any drift
/// means the `.stbp` format or the clustering changed without a
/// STBP_VERSION bump + fixture refresh (see CONTRIBUTING.md).
#[test]
fn golden_stbp_fixture_is_format_stable() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rebuilt = scratch("golden-rebuilt.stbp");
    let build = stbpu_in(
        &repo,
        &[
            "trace",
            "simpoint",
            "--trace-file",
            "ci/golden.stbt",
            "--out",
            rebuilt.to_str().unwrap(),
            "--branches",
            "400",
            "--slice-branches",
            "50",
            "--k",
            "3",
        ],
    );
    assert!(build.status.success(), "{}", stderr(&build));
    assert_eq!(
        std::fs::read(repo.join("ci/golden.stbp")).unwrap(),
        std::fs::read(&rebuilt).unwrap(),
        "golden .stbp no longer regenerates byte-identically — if the \
         format or clustering change is intentional, bump STBP_VERSION \
         and refresh the fixture (see CONTRIBUTING.md)"
    );

    let ins = stbpu_in(&repo, &["trace", "inspect", "ci/golden.stbp"]);
    assert!(ins.status.success(), "{}", stderr(&ins));
    assert_eq!(
        stdout(&ins),
        std::fs::read_to_string(repo.join("ci/golden-simpoint.txt")).unwrap(),
        "golden .stbp inspect output drifted from ci/golden-simpoint.txt"
    );

    let est = stbpu_in(
        &repo,
        &[
            "simulate",
            "--phases",
            "ci/golden.stbp",
            "--trace-file",
            "ci/golden.stbt",
            "--model",
            "st_skl@r=0.05",
            "--format",
            "json",
        ],
    );
    assert!(est.status.success(), "{}", stderr(&est));
    assert_eq!(
        stdout(&est).trim(),
        std::fs::read_to_string(repo.join("ci/golden-phases.json"))
            .unwrap()
            .trim(),
        "golden .stbp estimate drifted from ci/golden-phases.json"
    );
}

#[test]
fn bench_simpoint_suite_reference_round_trip_and_drift_detection() {
    let dir = scratch("simpoint-bench");
    let reference = scratch("simpoint-ref.json");
    let dir_s = dir.to_str().unwrap();
    let ref_s = reference.to_str().unwrap();
    // Big enough that the 10k-branch cold-start warm-up floor doesn't
    // swamp the representatives (branch_speedup must exceed 1).
    let config = [
        "bench",
        "--suite",
        "simpoint",
        "--branches",
        "200000",
        "--seed",
        "5",
        "--estimate-only",
        "--out-dir",
        dir_s,
        "--json",
    ];

    let rec = stbpu(&[&config[..], &["--update-reference", ref_s]].concat());
    assert!(rec.status.success(), "{}", stderr(&rec));
    let doc = stbpu_engine::minijson::Json::parse(stdout(&rec).trim()).expect("valid JSON");
    assert_eq!(doc.get("suite").unwrap().as_str().unwrap(), "simpoint");
    assert!(doc.get("branch_speedup").unwrap().as_f64().unwrap() > 1.0);
    assert_eq!(doc.get("schemes").unwrap().as_array().unwrap().len(), 9);
    let record = std::fs::read_to_string(dir.join("BENCH_simpoint.json")).expect("record");
    assert_eq!(record.trim(), stdout(&rec).trim());

    // A fresh identical run passes the committed-reference gate…
    let check = stbpu(&[&config[..], &["--check", ref_s]].concat());
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(
        stderr(&check).contains("simpoint reference check passed"),
        "{}",
        stderr(&check)
    );

    // …and a tampered estimate fails it, naming the scheme and the
    // refresh recipe.
    let text = std::fs::read_to_string(&reference).unwrap();
    let tampered = text.replacen("\"stbpu\": 0.", "\"stbpu\": 1.", 1);
    assert_ne!(text, tampered, "tamper point not found in {text}");
    std::fs::write(&reference, tampered).unwrap();
    let fail = stbpu(&[&config[..], &["--check", ref_s]].concat());
    assert_eq!(fail.status.code(), Some(1));
    let err = stderr(&fail);
    assert!(err.contains("scheme 'stbpu'"), "{err}");
    assert!(err.contains("--update-reference"), "{err}");
}

#[test]
fn simpoint_flag_misuse_exits_two() {
    // --phases excludes the sharding/resume machinery.
    let out = stbpu(&[
        "simulate", "--model", "skl", "--phases", "x.stbp", "--shards", "4",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );

    // --compare-full means nothing without --phases.
    let out = stbpu(&["simulate", "--model", "skl", "--compare-full"]);
    assert_eq!(out.status.code(), Some(2));

    // --protection without --embed-model cannot pin a checkpoint.
    let out = stbpu(&[
        "trace",
        "simpoint",
        "--workload",
        "505.mcf",
        "--out",
        "x.stbp",
        "--protection",
        "stbpu",
    ]);
    assert_eq!(out.status.code(), Some(2));

    // The reference flags belong to the simpoint suite alone, and the
    // OAE baseline belongs to the default suite alone.
    let out = stbpu(&["bench", "--quick", "--update-reference", "x.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("simpoint"), "{}", stderr(&out));
    let out = stbpu(&[
        "bench",
        "--suite",
        "simpoint",
        "--quick",
        "--update-baseline",
        "x.json",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

// --- the serve daemon, self-test and bench suite (continued) ----------

#[test]
fn bench_serve_suite_emits_trajectory_record() {
    let dir = scratch("serve-bench");
    let out = stbpu(&[
        "bench",
        "--suite",
        "serve",
        "--branches",
        "5000",
        "--clients",
        "2",
        "--sessions",
        "1",
        "--out-dir",
        dir.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let record = std::fs::read_to_string(dir.join("BENCH_serve.json")).expect("record written");
    for field in [
        "\"suite\":\"serve\"",
        "\"clients\":2",
        "\"sessions\":2",
        "\"sessions_per_s\"",
        "\"branches_per_s\"",
        "\"p50_ms\"",
        "\"p99_ms\"",
        "\"oae\"",
    ] {
        assert!(record.contains(field), "missing {field} in {record}");
    }
    assert_eq!(stdout(&out).trim(), record.trim());

    // The fleet flags belong to the serve suite alone.
    let misuse = stbpu(&["bench", "--quick", "--clients", "4"]);
    assert_eq!(misuse.status.code(), Some(2));
    assert!(
        stderr(&misuse).contains("serve suite"),
        "{}",
        stderr(&misuse)
    );
}
