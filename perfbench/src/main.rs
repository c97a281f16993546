//! `abe-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload (or all four in turn) for about `--seconds`
//! seconds, prints each metric by name with its unit, median, quartiles
//! and sample count, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 1` reports the per-layer metrics instead of the end-to-end
//! ones and writes the spans to `perfbench/out/`.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use abe_perfbench::host::HostSignature;
use abe_perfbench::{spans, stats, Outcome, Workload};

const USAGE: &str = "usage: abe-perfbench --workload <election_seq|election_sharded|sweep_mix|\
                     trace_replay|all> --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or(bad("unknown workload"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("expected non-negative seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// Prints the human-readable block of one outcome.
fn print_outcome(out: &Outcome, seed: u64, trace: bool, host: &HostSignature) {
    println!(
        "# workload={} seed={seed} trace={} iterations={} attempted={} failed={}",
        out.workload.name(),
        u8::from(trace),
        out.iterations,
        out.attempted,
        out.failed
    );
    println!("host {}", host.to_json());
    for failure in &out.failures {
        println!("FAILED {failure}");
        eprintln!("FAILED {failure}");
    }
    for s in &out.metrics {
        if s.samples.is_empty() {
            println!("metric {} = {} {}", s.def.name, s.value, s.def.unit);
        } else {
            let (q1, _, q3) = stats::quartiles(&s.samples);
            println!(
                "metric {} = {} {}  [q1 {q1:.6} q3 {q3:.6}, n={}]",
                s.def.name,
                s.value,
                s.def.unit,
                s.samples.len()
            );
        }
    }
}

/// Writes a traced run's spans under `perfbench/out/`, headed by the
/// host signature; returns the path written.
fn write_spans(out: &Outcome, seed: u64, host: &HostSignature) -> std::io::Result<String> {
    let dir = Path::new("perfbench").join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", out.workload.name()));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"host\":{}}}\n",
        out.workload.name(),
        host.to_json()
    );
    fs::write(&path, header + &spans::render_jsonl(&out.spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = Vec::new();
    for workload in &args.workloads {
        let out = abe_perfbench::run(*workload, args.seed, args.seconds, args.trace);
        let host = HostSignature::current(out.threads, Path::new("."));
        print_outcome(&out, args.seed, args.trace, &host);
        if args.trace {
            match write_spans(&out, args.seed, &host) {
                Ok(path) => println!("spans {} written to {path}", out.spans.len()),
                Err(e) => {
                    eprintln!("cannot write spans: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        attempted += out.attempted;
        failed += out.failed;
        for s in &out.metrics {
            if !s.value.is_finite() {
                eprintln!("metric {} is not finite", s.def.name);
                return ExitCode::from(1);
            }
            let name = if single {
                s.def.name.to_string()
            } else {
                format!("{}.{}", workload.name(), s.def.name)
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                s.value, s.def.unit
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
