//! End-to-end tests of the `lesgsc` command-line driver.

use std::process::Command;

fn lesgsc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_lesgsc"))
        .args(args)
        .output()
        .expect("lesgsc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn run_evaluates_expressions() {
    let (stdout, _, ok) = lesgsc(&["run", "-e", "(+ 40 2)"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "42");
}

#[test]
fn run_prints_program_output_before_value() {
    let (stdout, _, ok) = lesgsc(&["run", "-e", "(display \"hi\") (newline) 'done"]);
    assert!(ok);
    assert_eq!(stdout, "hi\ndone\n");
}

#[test]
fn stats_reports_instrumentation() {
    let (_, stderr, ok) = lesgsc(&[
        "stats",
        "-e",
        "(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 5)",
    ]);
    assert!(ok);
    for field in ["cycles:", "saves:", "restores:", "stack refs:", "shuffle:"] {
        assert!(stderr.contains(field), "missing {field} in {stderr}");
    }
}

#[test]
fn dis_produces_a_listing() {
    let (stdout, _, ok) = lesgsc(&["dis", "-e", "(+ 1 2)"]);
    assert!(ok);
    assert!(stdout.contains("halt"), "{stdout}");
    assert!(stdout.contains("main"), "{stdout}");
}

/// The profile counts code under `codegen.instrs` and carries no
/// `vm.dispatch.*` key: the VM executes the emitted code and translates
/// nothing first.
#[test]
fn profile_carries_no_dispatch_metrics() {
    let src = "(define (call f) (f 2)) (+ (call (lambda (x) (* x 3))) (call (lambda (x) x)))";
    let (stdout, stderr, ok) = lesgsc(&["run", "--profile=json", "-e", src]);
    assert!(ok, "{stderr}");
    let doc = lesgs_metrics::parse_json(&stdout).expect("profile JSON");
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object");
    let keys: Vec<&str> = metrics
        .iter()
        .filter_map(|(_, group)| group.as_object())
        .flat_map(|group| group.iter().map(|(k, _)| k.as_str()))
        .collect();
    assert!(keys.contains(&"codegen.instrs"), "{keys:?}");
    assert!(
        keys.iter().all(|k| !k.starts_with("vm.dispatch.")),
        "unexpected vm.dispatch.* key in {keys:?}"
    );
}

#[test]
fn strategy_flags_are_honored() {
    // Early saves produce more save-slot stores than lazy on factorial.
    let saves = |flags: &[&str]| {
        let mut args = vec!["stats"];
        args.extend_from_slice(flags);
        args.extend_from_slice(&[
            "-e",
            "(define (f n) (if (zero? n) 1 (* n (f (- n 1))))) (f 10)",
        ]);
        let (_, stderr, ok) = lesgsc(&args);
        assert!(ok, "{stderr}");
        stderr
            .lines()
            .find(|l| l.starts_with("saves:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse::<u64>().ok())
            .expect("saves line")
    };
    let lazy = saves(&["--save", "lazy"]);
    let early = saves(&["--save", "early"]);
    assert!(lazy < early, "lazy {lazy} < early {early}");
}

#[test]
fn interp_subcommand_matches_run() {
    let src = "(length (map (lambda (x) (* x x)) '(1 2 3)))";
    let (a, _, ok1) = lesgsc(&["run", "-e", src]);
    let (b, _, ok2) = lesgsc(&["interp", "-e", src]);
    assert!(ok1 && ok2);
    assert_eq!(a, b);
}

#[test]
fn check_accepts_good_programs() {
    let (stdout, _, ok) = lesgsc(&["check", "-e", "(define (sq x) (* x x)) (sq 9)"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("agree"), "{stdout}");
}

#[test]
fn errors_exit_nonzero() {
    let (_, stderr, ok) = lesgsc(&["run", "-e", "(car 5)"]);
    assert!(!ok);
    assert!(stderr.contains("pair"), "{stderr}");
    let (_, stderr, ok) = lesgsc(&["run", "-e", "(undefined-proc)"]);
    assert!(!ok);
    assert!(stderr.contains("unbound"), "{stderr}");
}

#[test]
fn bad_flags_exit_with_usage_code() {
    let (_, stderr, ok) = lesgsc(&["run", "--save", "bogus", "-e", "1"]);
    assert!(!ok);
    assert!(stderr.contains("save strategy"), "{stderr}");
}

#[test]
fn command_defaults_to_run() {
    let (stdout, _, ok) = lesgsc(&["-e", "(+ 1 2)"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn profile_table_goes_to_stderr() {
    let (stdout, stderr, ok) = lesgsc(&["run", "--profile", "-e", "(+ 40 2)"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "42");
    for name in ["vm.instructions", "alloc.call_sites", "pass.parse.wall_ns"] {
        assert!(stderr.contains(name), "missing {name} in {stderr}");
    }
}

#[test]
fn profile_json_is_one_valid_document_on_stdout() {
    let (stdout, stderr, ok) = lesgsc(&[
        "--profile=json",
        "-e",
        "(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 5)",
    ]);
    assert!(ok, "{stderr}");
    // The program's own value moved to stderr; stdout is pure JSON.
    assert!(stderr.contains('5'), "{stderr}");
    let doc = lesgs_metrics::parse_json(&stdout).expect("stdout parses as JSON");
    assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(doc.get("tool").and_then(|v| v.as_str()), Some("lesgsc"));
    assert_eq!(doc.get("value").and_then(|v| v.as_str()), Some("5"));
    let metrics = doc.get("metrics").expect("metrics");
    let counters = metrics.get("counters").expect("counters");
    // VM dynamic counters are present.
    assert!(counters.get("vm.instructions").and_then(|v| v.as_u64()) > Some(0));
    assert!(counters.get("vm.calls").is_some());
    assert!(counters.get("alloc.save_sites").is_some());
    assert!(counters.get("frontend.ast_nodes_in").is_some());
    // Per-pass wall times are present as histograms.
    let hists = metrics.get("histograms").expect("histograms");
    for pass in [
        "pass.parse.wall_ns",
        "pass.homes.wall_ns",
        "phase.codegen.wall_ns",
    ] {
        assert!(hists.get(pass).is_some(), "missing {pass}");
    }
}

#[test]
fn profile_json_works_on_example_files() {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scheme-examples/tak.scm");
    let (stdout, stderr, ok) = lesgsc(&["--profile=json", example]);
    assert!(ok, "{stderr}");
    let doc = lesgs_metrics::parse_json(&stdout).expect("valid JSON");
    let counters = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters");
    assert!(counters.get("vm.stack_refs").is_some());
}

#[test]
fn profile_out_writes_json_file() {
    let path = std::env::temp_dir().join("lesgsc-profile-test.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (stdout, stderr, ok) = lesgsc(&["run", "--profile-out", path_s, "-e", "(* 6 7)"]);
    assert!(ok, "{stderr}");
    // With --profile-out, stdout keeps the program's value.
    assert_eq!(stdout.trim(), "42");
    let text = std::fs::read_to_string(&path).expect("profile file written");
    std::fs::remove_file(&path).ok();
    let doc = lesgs_metrics::parse_json(&text).expect("file parses as JSON");
    assert_eq!(doc.get("value").and_then(|v| v.as_str()), Some("42"));
}

#[test]
fn trace_logs_pass_boundaries_and_calls() {
    let (_, stderr, ok) = lesgsc(&[
        "run",
        "--trace",
        "-e",
        "(define (g x) (* x x)) (define (f x) (g (+ x 1))) (f 2)",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("trace: pass.parse"), "{stderr}");
    assert!(stderr.contains("trace: call"), "{stderr}");
    assert!(stderr.contains("trace: return"), "{stderr}");
}

fn temp_lbc(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lesgsc-{}-{name}.lbc", std::process::id()))
}

#[test]
fn compile_writes_bytecode_that_run_executes_identically() {
    let path = temp_lbc("roundtrip");
    let path_s = path.to_str().expect("utf-8 temp path");
    let src = "(define (f n) (if (zero? n) 0 (+ 2 (f (- n 1))))) (display (f 21)) (newline)";
    let (_, stderr, ok) = lesgsc(&["compile", "-o", path_s, "-e", src]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote"), "{stderr}");

    let (direct, _, ok) = lesgsc(&["run", "-e", src]);
    assert!(ok);
    let (loaded, stderr, ok) = lesgsc(&["run", path_s]);
    assert!(ok, "{stderr}");
    assert_eq!(loaded, direct);

    // `stats` and `dis` accept the blob too.
    let (_, stderr, ok) = lesgsc(&["stats", path_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("instructions:"), "{stderr}");
    let (listing, _, ok) = lesgsc(&["dis", path_s]);
    assert!(ok);
    assert!(listing.contains("halt"), "{listing}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn bytecode_input_is_recognized_by_magic_not_extension() {
    let path = std::env::temp_dir().join(format!("lesgsc-{}-magic.bin", std::process::id()));
    let path_s = path.to_str().expect("utf-8 temp path");
    let (_, stderr, ok) = lesgsc(&["compile", "-o", path_s, "-e", "(* 6 7)"]);
    assert!(ok, "{stderr}");
    let (stdout, stderr, ok) = lesgsc(&["run", path_s]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "42");
    std::fs::remove_file(&path).ok();
}

#[test]
fn source_only_commands_reject_bytecode() {
    let path = temp_lbc("reject");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (_, stderr, ok) = lesgsc(&["compile", "-o", path_s, "-e", "(+ 1 2)"]);
    assert!(ok, "{stderr}");
    for cmd in ["ir", "interp", "check", "compile"] {
        let args: Vec<&str> = if cmd == "compile" {
            vec![cmd, "-o", "/dev/null", path_s]
        } else {
            vec![cmd, path_s]
        };
        let (_, stderr, ok) = lesgsc(&args);
        assert!(!ok, "`{cmd}` accepted bytecode input");
        assert!(stderr.contains("serialized bytecode"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_bytecode_fails_with_checksum_error() {
    let path = temp_lbc("corrupt");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (_, stderr, ok) = lesgsc(&["compile", "-o", path_s, "-e", "(+ 1 2)"]);
    assert!(ok, "{stderr}");
    let mut bytes = std::fs::read(&path).expect("blob written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("rewrite");
    let (_, stderr, ok) = lesgsc(&["run", path_s]);
    assert!(!ok);
    assert!(stderr.contains("checksum"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn compile_requires_an_output_path() {
    let (_, stderr, ok) = lesgsc(&["compile", "-e", "(+ 1 2)"]);
    assert!(!ok);
    assert!(stderr.contains("-o"), "{stderr}");
}

/// A vector too large to allocate is a typed error with exit status 1,
/// not an abort, in compiled code and in the interpreter alike.
#[test]
fn an_unallocatable_vector_exits_1_with_the_message() {
    let len = "100000000000000000";
    let src = format!("(vector-length (make-vector {len} 0))");
    for command in ["run", "interp"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lesgsc"))
            .args([command, "-e", &src])
            .output()
            .expect("lesgsc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "make-vector: cannot allocate a vector of length {len}"
            )),
            "{command}: {stderr}"
        );
    }
}

/// A deeply nested answer prints the same from compiled code as from
/// the interpreter, and neither aborts while printing or freeing it.
/// Both walk values with explicit stacks; an interpreter that walked
/// them by recursion aborts at this depth even on a 64 MiB stack in an
/// unoptimized build.
#[test]
fn a_deeply_nested_answer_prints_the_same_from_run_and_interp() {
    let depth = 400_000;
    let src = format!(
        "(define (nest n acc) (if (= n 0) acc (nest (- n 1) (cons acc '())))) (nest {depth} '())"
    );
    let printed = format!("{}(){}\n", "(".repeat(depth), ")".repeat(depth));
    for command in ["run", "interp"] {
        let (stdout, stderr, ok) = lesgsc(&[command, "-e", &src]);
        assert!(ok, "{command}: {stderr}");
        assert!(stdout == printed, "{command} printed another answer");
    }
}

/// Non-tail recursion 100,000 calls deep gets an answer from the
/// interpreter and a verdict from the check.
#[test]
fn deep_recursion_gets_an_answer_and_a_verdict() {
    let src = "(define (f n) (if (= n 0) 0 (+ 1 (f (- n 1))))) (f 100000)";
    let (stdout, stderr, ok) = lesgsc(&["interp", "-e", src]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "100000\n");
    let (stdout, stderr, ok) = lesgsc(&["check", "-e", src]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.starts_with("ok: "), "{stdout}");
}

/// An option its command does not read exits 2 with one `lesgsc: `
/// line naming the option and the command, from source text and from a
/// serialized program, and the command does nothing else: no output,
/// no profile file.
#[test]
fn an_option_the_command_does_not_read_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("lesgsc-{}-unread", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let profile = dir.join("p.json");
    let blob = dir.join("tak.lbc");
    let (profile_s, blob_s) = (profile.to_str().unwrap(), blob.to_str().unwrap());
    let tak = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scheme-examples/tak.scm");
    let (_, stderr, ok) = lesgsc(&["compile", "-o", blob_s, tak]);
    assert!(ok, "{stderr}");
    let src = "(+ 1 2)";
    for (args, option, command) in [
        (
            vec!["check", "--profile-out", profile_s, "-e", src],
            "--profile-out",
            "check",
        ),
        (
            vec!["check", "--save", "early", "--lift", "-e", src],
            "--save",
            "check",
        ),
        (
            vec!["interp", "--profile", "-e", src],
            "--profile",
            "interp",
        ),
        (
            vec!["interp", "--verify-bytecode", "-e", src],
            "--verify-bytecode",
            "interp",
        ),
        (vec!["interp", "--trace", "-e", src], "--trace", "interp"),
        (vec!["dis", "--fuel", "5", "-e", src], "--fuel", "dis"),
        (
            vec!["ir", "--profile=json", "-e", src],
            "--profile=json",
            "ir",
        ),
        (vec!["run", "-o", profile_s, "-e", src], "-o", "run"),
        (vec!["run", "--save", "early", blob_s], "--save", "run"),
        (
            vec!["stats", "--callee-save", blob_s],
            "--callee-save",
            "stats",
        ),
        (vec!["dis", "--regs", "2", blob_s], "--regs", "dis"),
        (vec!["run", "--lift", blob_s], "--lift", "run"),
        (vec!["dis", "--trace", blob_s], "--trace", "dis"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lesgsc"))
            .args(&args)
            .output()
            .expect("lesgsc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("lesgsc: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{option}`")) && stderr.contains(&format!("`{command}`")),
            "{args:?}: {stderr}"
        );
        assert!(!profile.exists(), "{args:?} wrote a profile");
    }
    // `--jobs` is no option of any command.
    for command in ["check", "run"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lesgsc"))
            .args([command, "--jobs", "4", "-e", src])
            .output()
            .expect("lesgsc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert_eq!(stderr, "lesgsc: unknown option `--jobs`\n");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A long literal list desugars into a deeply nested expression, which
/// every command compiles or interprets on its deep-stack thread.
#[test]
fn a_long_literal_list_gets_the_same_answer_from_every_command() {
    let items: Vec<String> = (0..2500).map(|i| i.to_string()).collect();
    let src = format!("(length (list {}))", items.join(" "));
    for command in ["run", "interp"] {
        let (stdout, stderr, ok) = lesgsc(&[command, "-e", &src]);
        assert!(ok, "{command}: {stderr}");
        assert_eq!(stdout, "2500\n", "{command}");
    }
    let (stdout, stderr, ok) = lesgsc(&["check", "-e", &src]);
    assert!(ok, "check: {stdout}{stderr}");
    assert!(stdout.starts_with("ok: "), "check: {stdout}");
}

/// A quote nested one level past the datum bound is a compile error
/// from every command that compiles it, instead of a blob that `run`
/// later refuses to load.
#[test]
fn a_quote_nested_past_the_datum_bound_is_a_compile_error() {
    let n = 258;
    let src = format!("(define x '{}{}) (pair? x)", "(".repeat(n), ")".repeat(n));
    let path = temp_lbc("too-deep");
    let path_s = path.to_str().expect("utf-8 temp path");
    for args in [
        vec!["run", "-e", &src],
        vec!["interp", "-e", &src],
        vec!["compile", "-o", path_s, "-e", &src],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lesgsc"))
            .args(&args)
            .output()
            .expect("lesgsc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("quoted datum nests more than 256 levels deep"),
            "{}: {stderr}",
            args[0]
        );
    }
    assert!(!path.exists(), "no blob is written");
}

/// A string literal keeps its non-ASCII characters: compiled code, the
/// interpreter and the check agree on its length and print it as
/// written.
#[test]
fn non_ascii_string_literals_keep_their_characters() {
    let src = "(display \"λx → ü\") (newline) (string-length \"λx → ü\")";
    for command in ["run", "interp"] {
        let (stdout, stderr, ok) = lesgsc(&[command, "-e", src]);
        assert!(ok, "{command}: {stderr}");
        assert_eq!(stdout, "λx → ü\n6\n", "{command}");
    }
    let (stdout, stderr, ok) = lesgsc(&["check", "-e", src]);
    assert!(ok, "check: {stdout}{stderr}");
    assert!(stdout.starts_with("ok: "), "check: {stdout}");
}

/// With no command first, the first positional argument that names a
/// command is the command, even after an option or the input: each
/// invocation here answers like its command-first form.
#[test]
fn a_command_word_after_an_option_is_the_command() {
    let (stdout, stderr, ok) = lesgsc(&["--trace", "run", "-e", "(+ 1 2)"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "3\n");
    assert!(stderr.contains("trace: call main"), "{stderr}");

    let src = "(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 5)";
    let late = lesgsc(&["--verify-bytecode", "stats", "-e", src]);
    assert!(late.2, "{}", late.1);
    assert!(late.1.contains("bytecode verified"), "{}", late.1);
    assert_eq!(late, lesgsc(&["stats", "--verify-bytecode", "-e", src]));

    let late = lesgsc(&["-e", "(+ 1 2)", "check"]);
    assert!(late.2, "{}", late.1);
    assert_eq!(late, lesgsc(&["check", "-e", "(+ 1 2)"]));
}

/// The `vm.*` entries of a `--profile=json` document, in every metric
/// group.
fn vm_metrics(profile: &str) -> Vec<(String, lesgs_metrics::Json)> {
    let doc = lesgs_metrics::parse_json(profile).expect("profile JSON");
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object");
    metrics
        .iter()
        .filter_map(|(_, group)| group.as_object())
        .flatten()
        .filter(|(k, _)| k.starts_with("vm."))
        .cloned()
        .collect()
}

/// Every shipped example answers the same from its source and from the
/// blob `compile` writes: `run`, `stats` and `dis` print the same
/// stdout, `stats` the same counters (a blob has no allocator output,
/// so no `shuffle:` line), and `run --profile=json` the same `vm.*`
/// metrics.
#[test]
fn every_example_answers_the_same_from_source_and_blob() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scheme-examples");
    let mut examples: Vec<_> = std::fs::read_dir(dir)
        .expect("scheme-examples")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scm"))
        .collect();
    examples.sort();
    assert!(!examples.is_empty());
    for example in &examples {
        let source = example.to_str().expect("utf-8 path");
        let name = example.file_stem().unwrap().to_string_lossy();
        let path = temp_lbc(&format!("example-{name}"));
        let blob = path.to_str().expect("utf-8 temp path");
        let (_, stderr, ok) = lesgsc(&["compile", source, "-o", blob]);
        assert!(ok, "{name}: {stderr}");
        for cmd in ["run", "stats", "dis"] {
            let (from_source, from_blob) = (lesgsc(&[cmd, source]), lesgsc(&[cmd, blob]));
            assert!(from_source.2 && from_blob.2, "{name} {cmd}: {from_blob:?}");
            assert_eq!(from_source.0, from_blob.0, "{name} {cmd}: stdout");
            if cmd == "stats" {
                let counters = |stderr: &str| {
                    let lines = stderr.lines().filter(|l| !l.starts_with("shuffle:"));
                    lines.map(str::to_owned).collect::<Vec<_>>()
                };
                assert!(from_source.1.contains("\nshuffle:"), "{name}");
                assert_eq!(counters(&from_source.1), counters(&from_blob.1), "{name}");
            }
        }
        let profile = |input: &str| {
            let (stdout, stderr, ok) = lesgsc(&["run", "--profile=json", input]);
            assert!(ok, "{name}: {stderr}");
            vm_metrics(&stdout)
        };
        let vm = profile(source);
        assert!(vm.iter().any(|(k, _)| k == "vm.stack_refs"), "{name}");
        assert_eq!(vm, profile(blob), "{name}: vm.* metrics");
        std::fs::remove_file(&path).ok();
    }
}
