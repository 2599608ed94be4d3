//! Repeat mode: runs workloads N times as child processes, alternating
//! their order, and prints each metric's median, quartiles and range — the
//! evidence that two sets of runs of the same code agree.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::e2e::WORKLOADS;
use crate::stats::{median, quartiles};

/// (name, value, unit) of one metric.
type Reading = (String, f64, String);

/// Pulls `"name": {"value": v, "unit": "u"}` entries and the `correct`
/// flag out of a result line.
fn parse_result(line: &str) -> Option<(bool, Vec<Reading>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for entry in metrics.split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let name = name.trim_start_matches('"').to_string();
        let (value, rest) = rest.split_once(", \"unit\": \"")?;
        let unit = rest.split('"').next()?.to_string();
        out.push((name, value.parse().ok()?, unit));
    }
    Some((correct, out))
}

/// Runs each named workload (all when none are named) `n` times with seeds
/// `seed`, `seed + 1`, …; returns the process exit code.
pub fn run(names: &[String], n: usize, seed: u64, seconds: f64) -> i32 {
    let mut names: Vec<String> = if names.is_empty() {
        WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    } else {
        names.to_vec()
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("ntcsbench: cannot find own executable");
        return 1;
    };
    // (workload, metric) -> (unit, values)
    let mut table: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut bad = 0;
    for i in 0..n {
        for name in &names {
            let s = seed + i as u64;
            let child = Command::new(&exe)
                .args(["--workload", name, "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::null())
                .output();
            let stdout = child.map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
            let stdout = stdout.unwrap_or_default();
            let steal = stdout
                .split_once("\"steal_share\": ")
                .and_then(|(_, rest)| rest.split([',', '}']).next())
                .unwrap_or("?")
                .to_string();
            let parsed = stdout.lines().last().and_then(parse_result);
            let Some((correct, metrics)) = parsed else {
                println!("run {i} {name} seed {s}: no result");
                bad += 1;
                continue;
            };
            if !correct {
                bad += 1;
            }
            let line: Vec<String> = metrics
                .iter()
                .map(|(m, v, _)| format!("{m}={v}"))
                .collect();
            println!(
                "run {i} {name} seed {s} correct={correct} steal={steal} {}",
                line.join(" ")
            );
            for (m, v, unit) in metrics {
                let slot = table.entry((name.clone(), m)).or_insert((unit, Vec::new()));
                slot.1.push(v);
            }
        }
        names.reverse();
    }
    println!(
        "{:<18} {:<18} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "workload", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for ((w, m), (unit, v)) in &table {
        let med = median(v);
        let [q1, _, q3] = if v.len() >= 2 { quartiles(v) } else { [med; 3] };
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{w:<18} {m:<18} {unit:>6} {med:>12.6} {q1:>12.6} {q3:>12.6} {min:>12.6} {max:>12.6} {:>7.4}",
            (q3 - q1) / med
        );
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::parse_result;

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b.c\": {\"value\": 2, \"unit\": \"1/s\"}}}";
        let (ok, m) = parse_result(line).unwrap();
        assert!(ok);
        assert_eq!(m[0], ("a".into(), 1.5, "us".into()));
        assert_eq!(m[1], ("b.c".into(), 2.0, "1/s".into()));
    }
}
