//! Byte-for-byte pins of the `--json` lines `groupdet analyze` and
//! `groupdet sweep` print. Scripts parse these lines, so key order, float
//! formatting and `null` placement are part of the interface; a change to
//! the JSON renderer the CLI uses must leave every byte here unchanged.
//!
//! The only field masked before comparison is `duration_ms`, which is a
//! wall-clock measurement.

use std::process::Command;

/// Runs `groupdet <args>` (split on whitespace) and returns its stdout
/// line with the `duration_ms` value replaced by `_`, plus the exit code.
fn json_line(args: &str) -> (String, i32) {
    let output = Command::new(env!("CARGO_BIN_EXE_groupdet"))
        .args(args.split_whitespace())
        .output()
        .expect("run groupdet");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let mut line = stdout.trim_end().to_string();
    let key = "\"duration_ms\":";
    if let Some(start) = line.find(key).map(|i| i + key.len()) {
        let len = line[start..]
            .find([',', '}'])
            .expect("duration_ms is followed by another token");
        line.replace_range(start..start + len, "_");
    }
    (line, output.status.code().expect("exit code"))
}

fn assert_golden(args: &str, expected: &str, exit: i32) {
    let (line, code) = json_line(args);
    assert_eq!(line, expected, "groupdet {args}");
    assert_eq!(code, exit, "exit code of groupdet {args}");
}

#[test]
fn analyze_json_lines_are_byte_stable() {
    assert_golden(
        "analyze --json",
        r#"{"command":"analyze","backend":"ms","served_by":"ms","degraded":false,"params":{"n":240,"speed":10,"rs":1000,"field":32000,"pd":0.9,"m":20,"k":5},"detection_probability":0.9781389029464118,"detection_probability_unnormalized":0.955046515294513,"retained_mass":0.9763915047419763,"predicted_accuracy":0.9763915047410977,"duration_ms":_,"cache":{"hits":14,"misses":8}}"#,
        0,
    );
    assert_golden(
        "analyze --json --backend exact",
        r#"{"command":"analyze","backend":"exact","served_by":"exact","degraded":false,"params":{"n":240,"speed":10,"rs":1000,"field":32000,"pd":0.9,"m":20,"k":5},"detection_probability":0.9796316266174545,"detection_probability_unnormalized":0.9796316266174611,"retained_mass":1.0000000000000067,"predicted_accuracy":1,"duration_ms":_,"cache":{"hits":0,"misses":1}}"#,
        0,
    );
    assert_golden(
        "analyze --json --n 120 --k 3 --m 10 --backend poisson",
        r#"{"command":"analyze","backend":"poisson","served_by":"poisson","degraded":false,"params":{"n":120,"speed":10,"rs":1000,"field":32000,"pd":0.9,"m":10,"k":3},"detection_probability":0.6752133933217171,"detection_probability_unnormalized":0.675213393321135,"retained_mass":0.9999999999991378,"predicted_accuracy":0.9999999999991381,"duration_ms":_,"cache":{"hits":0,"misses":1}}"#,
        0,
    );
    // A failed primary answered by its fallback: `degraded` flips and
    // `served_by` names the fallback.
    assert_golden(
        "analyze --json --backend s --cap 0 --fallback poisson",
        r#"{"command":"analyze","backend":"s","served_by":"poisson","degraded":true,"params":{"n":240,"speed":10,"rs":1000,"field":32000,"pd":0.9,"m":20,"k":5},"detection_probability":0.978590903946565,"detection_probability_unnormalized":0.9785909039338978,"retained_mass":0.9999999999870557,"predicted_accuracy":0.9999999999870538,"duration_ms":_,"cache":{"hits":0,"misses":2}}"#,
        0,
    );
}

#[test]
fn sweep_json_lines_are_byte_stable() {
    assert_golden(
        "sweep --json --n-start 60 --n-end 120 --n-step 60 --trials 200",
        r#"{"command":"sweep","backend":"ms","k":5,"rows":[{"n":60,"analysis":0.42671859587835886,"served_by":"ms","degraded":false,"error":null,"simulation":0.385,"sim_error":null},{"n":120,"analysis":0.7813851936905624,"served_by":"ms","degraded":false,"error":null,"simulation":0.795,"sim_error":null}],"cache":{"hits":29,"misses":17,"poisoned_recoveries":0}}"#,
        0,
    );
    // Every row failing: each carries its error string and the run exits 1.
    assert_golden(
        "sweep --json --no-sim --backend s --cap 0 --n-start 60 --n-end 90",
        r#"{"command":"sweep","backend":"s","k":5,"rows":[{"n":60,"analysis":null,"served_by":"s","degraded":false,"error":"invalid parameter `cap_sensors`: must be at least 1","simulation":null,"sim_error":null},{"n":90,"analysis":null,"served_by":"s","degraded":false,"error":"invalid parameter `cap_sensors`: must be at least 1","simulation":null,"sim_error":null}],"cache":{"hits":0,"misses":2,"poisoned_recoveries":0}}"#,
        1,
    );
}
