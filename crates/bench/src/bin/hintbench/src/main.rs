//! `hintbench` — the repository's benchmark: four workloads over the
//! HINT serving stack, their end-to-end metrics, a correctness check on
//! every run, and a traced run that attributes time to each layer.
//!
//! One workload per process (the form `BENCHMARK.json` runs):
//!
//! ```text
//! hintbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! prints `workload metric value unit` lines, diagnostics as `#` lines,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `run` drives every workload, each in its own
//! child process so peak RSS is per workload, and `compare` judges two
//! saved sets of runs against the bounds in `BENCHMARK.json`. See
//! README.md beside this package for the workloads and metrics.

mod calibrate;
mod check;
mod compare;
mod json;
mod ladder;
mod plan;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Opts, Spec, WORKLOADS};

const USAGE: &str = "usage:
  hintbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  hintbench run [--seed <n>] [--runs <r>] [--seconds <s>] [--trace] [--smoke]
                [--workload <name>]... [--out <file.json>]
  hintbench compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]
workloads: lib-stab lib-wide serve-mixed serve-saturate";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => bench_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hintbench: {e}");
        ExitCode::from(2)
    })
}

/// Flag parser: `--name value` pairs and bare `--switch`es.
struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.i)?;
        self.i += 1;
        Some(a)
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        v.parse()
            .map_err(|_| format!("bad value for {flag}: {v:?}\n{USAGE}"))
    }
}

/// The measured configuration is always the code's defaults, and the
/// load never outnumbers the cores it runs on.
fn guards(spec: Option<&Spec>) -> Result<(), String> {
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("HINT_"))
    {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the code's defaults",
            k.to_string_lossy()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(spec) = spec {
        let (threads, conns) = spec.load();
        if threads > nproc || conns > nproc {
            return Err(format!(
                "{} needs {threads} load threads and {conns} connections, more than the {nproc} cores here",
                spec.name
            ));
        }
    }
    Ok(())
}

/// The checkout's git revision, read from `.git` in the working
/// directory without leaving it; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("hintbench")
}

/// Runs one workload in this process and prints its result.
fn bench_one(args: &[String]) -> Result<ExitCode, String> {
    let (mut name, mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, None, false);
    let mut f = Flags { args, i: 0 };
    while let Some(flag) = f.next() {
        match flag {
            "--workload" => name = Some(f.value::<String>(flag)?),
            "--seed" => seed = Some(f.value::<u64>(flag)?),
            "--seconds" => seconds = Some(f.value::<f64>(flag)?),
            "--trace" => trace = Some(f.value::<u8>(flag)?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let name = name.ok_or(format!("--workload is required\n{USAGE}"))?;
    let spec = workload::find(&name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match trace {
        Some(0) => false,
        Some(1) => true,
        _ => return Err(format!("--trace must be 0 or 1\n{USAGE}")),
    };
    guards(Some(spec))?;
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        trace_dir: Some(trace_dir()),
    };
    let (threads, conns) = spec.load();
    println!(
        "# hintbench {} seed {} seconds {} trace {} smoke {} git {} nproc {} load threads {} connections {}",
        spec.name,
        opts.seed,
        seconds,
        u8::from(trace),
        smoke,
        git_revision(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads,
        conns
    );
    let report = workload::run(spec, &opts)?;
    for n in &report.notes {
        println!("# {n}");
    }
    if trace {
        println!(
            "# spans: {}",
            trace_dir()
                .join(format!("trace-{}.jsonl", spec.name))
                .display()
        );
    }
    let mut fields = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a number ({})", m.name, m.value));
        }
        println!("{} {} {} {}", spec.name, m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(",")
    );
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the selected workloads (default: all) for `--runs` consecutive
/// seeds, each workload in a child process.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut runs, mut seconds, mut trace, mut smoke) =
        (42u64, 1u64, 20.0f64, false, false);
    let (mut names, mut out): (Vec<String>, Option<String>) = (Vec::new(), None);
    let mut f = Flags { args, i: 0 };
    while let Some(flag) = f.next() {
        match flag {
            "--seed" => seed = f.value(flag)?,
            "--runs" => runs = f.value(flag)?,
            "--seconds" => seconds = f.value(flag)?,
            "--workload" => names.push(f.value(flag)?),
            "--out" => out = Some(f.value(flag)?),
            "--trace" => trace = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let specs: Vec<&Spec> = if names.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| workload::find(n).ok_or(format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?
    };
    guards(None)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut saved = Vec::new();
    let mut ok = true;
    for r in 0..runs {
        for spec in &specs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &(seed + r).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd
                .output()
                .map_err(|e| format!("running {}: {e}", spec.name))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().filter(|l| l.starts_with('{'));
            for l in lines {
                println!("{l}");
            }
            match (child.status.success(), result) {
                (true, Some(result)) => saved.push(format!(
                    "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{}}}",
                    spec.name,
                    seed + r,
                    trace,
                    result
                )),
                _ => {
                    ok = false;
                    println!("{} FAILED ({})", spec.name, child.status);
                }
            }
        }
    }
    if let Some(path) = out {
        let doc = format!(
            "{{\"git\":\"{}\",\"runs\":[\n{}\n]}}\n",
            json::escape(&git_revision()),
            saved.join(",\n")
        );
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
        println!("# wrote {} runs to {path}", saved.len());
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut f = Flags { args, i: 0 };
    while let Some(a) = f.next() {
        match a {
            "--benchmark" => bench = f.value(a)?,
            path => files.push(path.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(format!("compare needs two result files\n{USAGE}"));
    };
    Ok(if compare::run(a, b, &bench)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
