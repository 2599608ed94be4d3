//! Checks the benchmark against its own `BENCHMARK.json`: every metric and
//! workload name is well formed, and a minimal-length run of each workload,
//! untraced and traced, passes its correctness gates and prints every
//! declared metric with its declared unit.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value — just enough of a parser for `BENCHMARK.json` and the
/// result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// (name, unit) of a metric section.
fn metrics(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn declared_names_are_well_formed() {
    let spec = spec();
    let mut seen = std::collections::BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in metrics(&spec, section) {
            assert!(well_formed(&name), "bad metric name {name:?}");
            assert!(
                !unit.is_empty() && unit.len() <= 16,
                "bad unit {unit:?} for {name}"
            );
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }
    for w in spec.get("workloads").arr() {
        assert!(well_formed(w.get("name").str()));
    }
}

/// Runs the benchmark once and returns its result line, parsed.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ntcsbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(stdout.lines().last().expect("a result line"))
}

/// Every workload the binary knows.
fn known_workloads() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_ntcsbench"))
        .arg("--list")
        .output()
        .expect("run the benchmark");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_passes_its_gates_and_prints_every_metric() {
    let spec = spec();
    let known = known_workloads();
    let declared: Vec<String> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(known, declared, "the binary's workloads are the declared ones");
    for name in &known {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(name, trace);
            let keys: Vec<&String> = match &result {
                Json::Obj(m) => m.keys().collect(),
                other => panic!("result is not an object: {other:?}"),
            };
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} trace={trace}"
            );
            assert_eq!(
                result.get("failed"),
                &Json::Num(0.0),
                "{name} trace={trace}"
            );
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let printed = result.get("metrics");
            for (metric, unit) in metrics(&spec, section) {
                let m = printed.get(&metric);
                assert_eq!(m.get("unit").str(), unit, "{name}: unit of {metric}");
                assert!(
                    matches!(m.get("value"), Json::Num(_)),
                    "{name}: value of {metric}"
                );
            }
        }
    }
}
