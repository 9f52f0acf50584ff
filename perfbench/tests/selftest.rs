//! Tiny-scale run of every workload, untraced and traced: each metric
//! `BENCHMARK.json` declares is emitted with its declared unit, and no
//! operation fails.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for the benchmark's declaration and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn list(&self) -> &[Value] {
        match self {
            Value::List(l) => l,
            other => panic!("{other:?} is not a list"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Value {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.at, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.at),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Value {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Value::Object(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    match self.peek() {
                        b',' => self.eat(b','),
                        _ => break,
                    }
                }
                self.eat(b'}');
                Value::Object(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut l = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Value::List(l);
                }
                loop {
                    l.push(self.value());
                    match self.peek() {
                        b',' => self.eat(b','),
                        _ => break,
                    }
                }
                self.eat(b']');
                Value::List(l)
            }
            b'"' => Value::Str(self.string()),
            _ => self.literal(),
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.at];
            self.at += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.at];
                    self.at += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => panic!("unsupported escape \\{}", other as char),
                    });
                }
                _ => {
                    // multi-byte UTF-8 passes through byte by byte
                    let start = self.at - 1;
                    let len = match c {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        0xC0.. => 2,
                        _ => 1,
                    };
                    self.at = start + len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.at]).expect("UTF-8"));
                }
            }
        }
    }

    fn literal(&mut self) -> Value {
        let start = self.at;
        while self.at < self.s.len() && !b",]} \n".contains(&self.s[self.at]) {
            self.at += 1;
        }
        match std::str::from_utf8(&self.s[start..self.at]).expect("UTF-8") {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "null" => Value::Null,
            n => Value::Num(n.parse().unwrap_or_else(|_| panic!("bad literal {n}"))),
        }
    }
}

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// Runs one tiny workload and returns its report and result lines.
fn run(workload: &str, trace: bool) -> (Value, Value) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "0.01"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"]);
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("GC_")) {
        cmd.env_remove(k);
    }
    let out = cmd.output().expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected a report and a result line:\n{stdout}"
    );
    (
        Parser::parse(lines[lines.len() - 2]),
        Parser::parse(lines[lines.len() - 1]),
    )
}

fn check(workload: &str, trace: bool) {
    let decl = declaration();
    let declared = decl
        .get(if trace { "per_layer" } else { "end_to_end" })
        .list();
    let (report, result) = run(workload, trace);
    assert_eq!(result.get("correct"), &Value::Bool(true));
    assert_eq!(result.get("failed").num(), 0.0, "failed_ops must be 0");
    assert_eq!(report.get("failed_ops").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    let Value::Object(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        metrics.len(),
        declared.len(),
        "metrics emitted: {:?}",
        metrics.keys()
    );
    for m in declared {
        let name = m.get("name").str();
        let emitted = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert_eq!(emitted.get("unit").str(), m.get("unit").str(), "{name}");
        let v = emitted.get("value").num();
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
        if !trace {
            assert!(v > 0.0, "end-to-end metric {name} is zero");
        }
    }
    let prov = report.get("provenance");
    assert_eq!(prov.get("workload").str(), workload);
    assert_eq!(prov.get("seed").num(), 3.0);
    assert!(prov.get("nproc").num() >= 1.0);
    prov.get("git_revision").str();
    prov.get("rustc").str();
    if trace {
        assert_eq!(report.get("trace_faithful"), &Value::Bool(true));
        // the spans and the `other` residual partition the traced wall time
        let Value::Object(parts) = report.get("span_partition_s") else {
            panic!("span_partition_s is not an object")
        };
        let wall = parts["wall"].num();
        let sum: f64 = parts
            .iter()
            .filter(|(k, _)| *k != "wall")
            .map(|(_, v)| v.num())
            .sum();
        assert!(
            (sum - wall).abs() <= 1e-6 * wall.max(1.0),
            "{sum} != {wall}"
        );
    } else {
        report.get("host").get("on_cpu_s").num();
        report.get("host").get("run_wait_s").num();
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let decl = declaration();
    let workloads: Vec<&str> = decl
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["uu-static", "served-churn"]);
    // zz-churn stays runnable for diagnosis though BENCHMARK.json omits it
    for w in ["zz-churn", "uu-static", "served-churn"] {
        check(w, false);
        check(w, true);
    }
}

#[test]
fn refuses_to_run_with_a_gc_override_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "zz-churn",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("GC_SHARDS", "2")
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}

#[test]
fn parser_reads_what_the_benchmark_writes() {
    let v = Parser::parse(r#"{"a": [1, 2.5e-3, true, null], "b": {"c": "x\"y"}}"#);
    assert_eq!(v.get("a").list().len(), 4);
    assert_eq!(v.get("b").get("c").str(), "x\"y");
}
