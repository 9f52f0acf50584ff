//! Statistics, the JSON result line, and what the host tells us about a
//! run: provenance, peak memory and the driving thread's scheduler times.

use std::fmt::Write as _;
use std::process::Command;

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a sample.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile — the check that
/// a reported high percentile rests on at least ten observations.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - ((p / 100.0) * count as f64).ceil() as usize
}

/// Ordered JSON object writer for flat and nested objects.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    pub fn new() -> Self {
        Json::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        write!(self.body, "\"{key}\": ").expect("writing to a String cannot fail");
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} is not a finite number: {value}");
        self.key(key);
        // `{:?}` prints the shortest string that reads back to the same
        // f64, so no measured digit is dropped
        write!(self.body, "{value:?}").expect("writing to a String cannot fail");
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        write!(self.body, "{value}").expect("writing to a String cannot fail");
        self
    }

    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.body.push('"');
        for c in value.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    write!(self.body, "\\u{:04x}", c as u32).expect("String write")
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    pub fn object(&mut self, key: &str, value: Json) -> &mut Self {
        self.key(key);
        self.body.push_str(&value.finish());
        self
    }

    pub fn objects(&mut self, key: &str, values: Vec<Json>) -> &mut Self {
        self.key(key);
        let parts: Vec<String> = values.into_iter().map(Json::finish).collect();
        write!(self.body, "[{}]", parts.join(", ")).expect("writing to a String cannot fail");
        self
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        self.key(key);
        let parts: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        write!(self.body, "[{}]", parts.join(", ")).expect("writing to a String cannot fail");
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// `{"value": v, "unit": u}` — one reported metric.
pub fn metric(value: f64, unit: &str) -> Json {
    let mut j = Json::new();
    j.num("value", value).text("unit", unit);
    j
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what a result was measured.
pub fn provenance(workload: &str, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut j = Json::new();
    j.text("workload", workload)
        .int("seed", seed)
        .int("nproc", nproc as u64)
        .text(
            "git_revision",
            // only the checkout's own repository, never one around it
            &command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"]),
        )
        .text("rustc", &command_line("rustc", &["--version"]));
    j
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The calling thread's time on a CPU and time runnable but waiting for
/// one, both in nanoseconds, from `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedTimes {
    pub on_cpu_ns: u64,
    pub run_wait_ns: u64,
}

impl SchedTimes {
    pub fn now() -> SchedTimes {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        SchedTimes {
            on_cpu_ns: fields.next().unwrap_or(0),
            run_wait_ns: fields.next().unwrap_or(0),
        }
    }

    pub fn since(self, start: SchedTimes) -> SchedTimes {
        SchedTimes {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(start.on_cpu_ns),
            run_wait_ns: self.run_wait_ns.saturating_sub(start.run_wait_ns),
        }
    }

    pub fn add(&mut self, other: SchedTimes) {
        self.on_cpu_ns += other.on_cpu_ns;
        self.run_wait_ns += other.run_wait_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(2000, 99.0), 20);
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        let mut j = Json::new();
        j.num("x", 0.1 + 0.2).text("s", "a\"b").int("n", 7);
        assert_eq!(
            j.finish(),
            r#"{"x": 0.30000000000000004, "s": "a\"b", "n": 7}"#
        );
    }
}
